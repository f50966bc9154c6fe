// Command optimize regenerates the paper's deployment-optimization
// experiments: Table I (minimum-cost machine selection per flow stage
// under total-runtime constraints, with NA for infeasible deadlines)
// and Fig. 6 (cost and runtime of the optimizer against the
// over-provisioning and under-provisioning baselines on four designs).
// With -execute it additionally runs the optimized plan through the
// fleet scheduler — each stage placed on its knapsack-chosen instance
// — and prints predicted versus simulated per-stage runtimes and
// bills. With -batch it co-optimizes several flows against one shared
// bounded fleet (shadow prices on contended instance types over each
// job's knapsack), prints the contention-aware forecast, verifies it
// against the fleet simulation, and compares the joint plan with
// independently optimized plans executed on the same fleet.
//
// Usage:
//
//	optimize -table1 -design sparc_core
//	optimize -figure6
//	optimize -table1 -deadlines 10000,6000,5645,5000
//	optimize -execute -design ibex -deadline 250
//	optimize -execute -fleet gp.1x=1,mem.8x=2 -minbill 60
//	optimize -batch -designs ibex,aes,ibex -fleet gp.1x=1,gp.8x=1,mem.1x=1,mem.8x=1
//	optimize -spot -designs aes,jpeg -slack 1.15 -hazard-seed 2 -hazard-rate 240
//
// -spot is the preemptible-fleet experiment: the same batch planned
// three ways — on-demand only, naively on spot prices, and with
// revocation-risk-adjusted expected cost — then executed under the
// same seeded revocation timelines, so the realized bills and missed
// deadlines of the three strategies are directly comparable.
package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"edacloud/internal/cache"
	"edacloud/internal/cli"
	"edacloud/internal/cloud"
	"edacloud/internal/core"
	"edacloud/internal/flow"
	"edacloud/internal/mckp"
	"edacloud/internal/techlib"
)

const prog = "optimize"

func main() {
	design := flag.String("design", "sparc_core", "design for Table I / plan execution")
	scale := flag.Float64("scale", 0.03, "design scale factor")
	table1 := flag.Bool("table1", false, "regenerate Table I")
	figure6 := flag.Bool("figure6", false, "regenerate Figure 6")
	execute := flag.Bool("execute", false, "execute the optimized plan on a fleet and compare against the prediction")
	batch := flag.Bool("batch", false, "co-optimize a batch of flows against one shared fleet")
	spot := flag.Bool("spot", false, "compare on-demand, naive-spot and risk-adjusted batch plans under seeded revocations")
	hazardSeed := flag.Int64("hazard-seed", 1, "revocation timeline seed for -spot")
	hazardRate := flag.Float64("hazard-rate", 240, "revocations per spot-instance-hour for -spot")
	designList := flag.String("designs", "ibex,aes,ibex", "comma-separated designs for -batch (repeats allowed)")
	deadlineList := flag.String("deadlines", "", "comma-separated deadline seconds for Table I (default: derived from the design)")
	deadline := flag.Int("deadline", 0, "deadline seconds for -execute (0 = midway between fastest and cheapest)")
	fleetSpec := flag.String("fleet", "", "fleet for -execute as name=count,... (default: one instance per plan-chosen type)")
	minBill := flag.Float64("minbill", 0, "minimum billing granularity in seconds for -execute (0 = pure per-second)")
	slack := flag.Float64("slack", 1.1, "Figure 6 deadline as a multiple of the fastest schedule")
	useCache := flag.Bool("cache", false, "attach an artifact store to -batch: repeated stage work is planned as cache hits and the joint plan is compared against the cache-blind one")
	workers := flag.Int("workers", 0, "bound for the characterization fan-out and kernel pools (0 = all cores; results identical)")
	flag.Parse()
	if !*table1 && !*figure6 && !*execute && !*batch && !*spot {
		*table1 = true
		*figure6 = true
	}
	cli.Check(prog,
		cli.NoArgs(flag.Args()),
		cli.Count("workers", *workers),
		cli.Scale("scale", *scale),
		cli.Positive("slack", *slack),
		cli.Count("deadline", *deadline),
		cli.NonNegative("minbill", *minBill),
		cli.HazardRate(*hazardRate),
		cli.Refuse(*useCache && !*batch, "-cache applies to -batch (the store dedups across a batch of flows)"),
		cli.Refuse(*figure6 && *slack < 1, "-slack %v: below 1 makes every Figure 6 plan infeasible", *slack),
	)
	deadlines := parseDeadlines(*deadlineList)

	lib := techlib.Default14nm()
	catalog := cloud.DefaultCatalog()
	if *minBill > 0 {
		catalog = catalog.WithMinBill(*minBill)
	}
	opts := core.CharacterizeOptions{Scale: *scale, Workers: *workers}

	if *execute {
		executePlan(lib, catalog, *design, opts, *deadline, *fleetSpec)
	}

	if *batch {
		var store *cache.Store
		if *useCache {
			store = cache.New(0)
		}
		batchOptimize(lib, catalog, strings.Split(*designList, ","), opts, *slack, *fleetSpec, store)
	}

	if *spot {
		spotCompare(lib, catalog, strings.Split(*designList, ","), opts, *slack, *fleetSpec, *hazardSeed, *hazardRate)
	}

	if *table1 {
		ds, err := cli.Designs(lib, []string{*design}, opts, catalog)
		if err != nil {
			cli.Fail(prog, err)
		}
		prob := ds[0].Probs[0]
		fmt.Printf("Table I: minimizing deployment cost for %s under runtime constraints\n\n", *design)
		printStageTable(prob)

		if deadlines == nil {
			minTime := prob.MinTime()
			under := prob.UnderProvision()
			deadlines = []int{
				under.TotalTime,
				(minTime + under.TotalTime) / 2,
				minTime + (under.TotalTime-minTime)/10,
				minTime,
				minTime - minTime/10,
			}
		}
		rows, err := prob.TableI(deadlines)
		if err != nil {
			cli.Fail(prog, err)
		}
		fmt.Printf("\n%-12s %-52s %10s %10s\n", "constraint", "selection", "total time", "cost ($)")
		for _, r := range rows {
			if !r.Plan.Feasible {
				fmt.Printf("%-12d %-52s %10s %10s\n", r.DeadlineSec, "NA", "NA", "NA")
				continue
			}
			fmt.Printf("%-12d %-52s %9ds %10.4f\n",
				r.DeadlineSec, picksString(r.Plan), r.Plan.TotalTime, r.Plan.TotalCost)
		}
	}

	if *figure6 {
		fmt.Println("\nFigure 6: cost savings vs provisioning policies")
		fmt.Printf("%-12s %12s %12s %12s %10s %12s\n",
			"design", "over ($)", "opt ($)", "under ($)", "saving", "opt overhead")
		var totalSaving float64
		ds, err := cli.Designs(lib, []string{"sparc_core", "coyote", "ariane", "swerv"}, opts, catalog)
		if err != nil {
			cli.Fail(prog, err)
		}
		for _, d := range ds {
			cmp, err := core.CompareProvisioning(d.Probs[0], *slack)
			if err != nil {
				cli.Fail(prog, err)
			}
			fmt.Printf("%-12s %12.4f %12.4f %12.4f %9.1f%% %11.1f%%\n",
				d.Name, cmp.Over.TotalCost, cmp.Opt.TotalCost, cmp.Under.TotalCost,
				cmp.SavingVsOverPct, cmp.OverheadVsBestPct)
			totalSaving += cmp.SavingVsOverPct
		}
		fmt.Printf("\nAverage saving vs over-provisioning: %.2f%% (paper: 35.29%%)\n",
			totalSaving/float64(len(ds)))
	}
}

// executePlan is the run-the-plan mode: optimize a deployment under
// the deadline, then execute it stage by stage over a fleet as the
// job's flow.Job.Plan, validating the knapsack's per-stage predictions
// against the simulated schedule.
func executePlan(lib *techlib.Library, catalog *cloud.Catalog, design string, opts core.CharacterizeOptions, deadline int, fleetSpec string) {
	ds, err := cli.Designs(lib, []string{design}, opts, catalog)
	if err != nil {
		cli.Fail(prog, err)
	}
	char, prob := ds[0].Char, ds[0].Probs[0]
	if deadline <= 0 {
		deadline = (prob.MinTime() + prob.UnderProvision().TotalTime) / 2
	}
	plan, err := prob.Optimize(deadline)
	if err != nil {
		cli.Fail(prog, err)
	}
	if !plan.Feasible {
		cli.Fail(prog, fmt.Errorf("deadline %ds below the fastest achievable %ds", deadline, prob.MinTime()))
	}
	var fleet *cloud.Fleet
	if fleetSpec != "" {
		if fleet, err = cloud.ParseFleetSpec(catalog, fleetSpec); err != nil {
			cli.Fail(prog, err)
		}
	}
	sched, err := core.ExecutePlan(lib, char, plan, opts, fleet)
	if err != nil {
		cli.Fail(prog, err)
	}
	j := sched.Jobs[0]
	if j.Err != nil {
		cli.Fail(prog, j.Err)
	}

	fmt.Printf("Plan execution: %s under a %ds deadline (policy plan, fleet %s)\n\n",
		design, deadline, sched.Fleet)
	fmt.Printf("%-12s %-10s %12s %12s %14s %14s\n",
		"stage", "instance", "predicted", "simulated", "pred cost ($)", "sim cost ($)")
	for _, st := range j.Stages {
		pick, err := plan.Pick(st.Kind)
		if err != nil {
			cli.Fail(prog, err)
		}
		fmt.Printf("%-12s %-10s %11.1fs %11.1fs %14.4f %14.4f\n",
			st.Kind, st.Instance, pick.Seconds, st.Seconds, pick.Cost, st.CostUSD)
	}
	fmt.Printf("\nplan: time %ds cost $%.4f | simulated: busy %.1fs finish %.1fs cost $%.4f wait %.1fs\n",
		plan.TotalTime, plan.TotalCost, j.Seconds, j.FinishSec, j.CostUSD, j.WaitSec)
	fmt.Printf("fleet utilization %.1f%% over a %.1fs makespan\n\n",
		sched.UtilizationPct, sched.MakespanSec)
}

// batchOptimize is the -batch mode: co-optimize the named designs'
// flows against one shared fleet, print the contention-aware forecast,
// verify it against the fleet simulation, and compare the joint plan
// against independently optimized plans on the same fleet (static and
// adaptive executions).
func batchOptimize(lib *techlib.Library, catalog *cloud.Catalog, names []string, opts core.CharacterizeOptions, slack float64, fleetSpec string, store *cache.Store) {
	if fleetSpec == "" {
		fleetSpec = "gp.1x=1,gp.8x=1,mem.1x=1,mem.8x=1"
	}
	fleet, err := cloud.ParseFleetSpec(catalog, fleetSpec)
	if err != nil {
		cli.Fail(prog, err)
	}

	ds, err := cli.Designs(lib, names, opts, catalog)
	if err != nil {
		cli.Fail(prog, err)
	}
	specs := cli.BatchSpecs(ds, 0)
	ibp, err := core.SlackDeadlines(specs, fleet, slack)
	if err != nil {
		cli.Fail(prog, err)
	}
	if store != nil {
		// Predict which stages the store (empty here, so only earlier
		// jobs in this batch) will serve, and keep a cache-blind copy of
		// the specs so the two joint plans can be priced side by side.
		if err := core.PredictCacheHits(store, lib, specs, opts); err != nil {
			cli.Fail(prog, err)
		}
	}
	bp, err := core.OptimizeBatch(specs, fleet, core.BatchOptions{Cache: store})
	if err != nil {
		cli.Fail(prog, err)
	}
	if !bp.Feasible {
		cli.Fail(prog, fmt.Errorf("batch infeasible: a job cannot meet its own deadline alone"))
	}

	fmt.Printf("Batch co-optimization: %d jobs on fleet %s (deadline slack %.2fx, method %s)\n\n",
		len(specs), fleet, slack, bp.Selection.Method)
	fmt.Printf("%-12s %9s %-52s %9s %10s\n", "job", "deadline", "plan", "busy", "cost ($)")
	for i, spec := range specs {
		fmt.Printf("%-12s %8ds %-52s %8ds %10.4f\n",
			spec.Name, spec.DeadlineSec, picksString(bp.Plans[i]),
			bp.Plans[i].TotalTime, bp.Plans[i].TotalCost)
	}

	sched, err := core.ExecuteBatchPlan(lib, specs, bp, opts, fleet.Clone(), false)
	if err != nil {
		cli.Fail(prog, err)
	}
	fmt.Printf("\nPredicted schedule under contention (verified against the fleet simulation):\n\n")
	fmt.Printf("%-12s %9s %9s %9s %10s %9s %9s\n",
		"job", "start", "wait", "finish", "cost ($)", "deadline", "simulated")
	exact := true
	for i, f := range bp.Forecast.Jobs {
		j := sched.Jobs[i]
		if j.Err != nil {
			cli.Fail(prog, j.Err)
		}
		match := "match"
		if j.StartSec != f.StartSec || j.FinishSec != f.FinishSec ||
			j.WaitSec != f.WaitSec || j.CostUSD != f.CostUSD {
			match, exact = "MISMATCH", false
		}
		status := "met"
		if !f.DeadlineMet {
			status = "MISSED"
		}
		fmt.Printf("%-12s %8.0fs %8.0fs %8.0fs %10.4f %9s %9s\n",
			f.Name, f.StartSec, f.WaitSec, f.FinishSec, f.CostUSD, status, match)
	}
	if !exact {
		cli.Fail(prog, fmt.Errorf("forecast diverged from the fleet simulation"))
	}
	fmt.Printf("\nBatch: $%.4f, makespan %.0fs, %.0fs queued, %d deadline(s) missed, fleet %.1f%% utilized\n",
		sched.TotalCostUSD, sched.MakespanSec, sched.TotalWaitSec,
		sched.DeadlinesMissed, sched.UtilizationPct)

	if store != nil {
		if sched.CacheHits != bp.Forecast.CacheHits {
			cli.Fail(prog, fmt.Errorf("execution billed %d cache hits, forecast predicted %d", sched.CacheHits, bp.Forecast.CacheHits))
		}
		// Price the cache-aware joint plan against the cache-blind one
		// under the same predicted hits: both batches would execute over
		// the same store, so hit stages are free either way — the aware
		// plan wins by not buying speed for work the store serves.
		blindSpecs := make([]core.BatchJobSpec, len(specs))
		copy(blindSpecs, specs)
		for i := range blindSpecs {
			blindSpecs[i].CacheHits = nil
		}
		blind, err := core.OptimizeBatch(blindSpecs, fleet, core.BatchOptions{})
		if err != nil {
			cli.Fail(prog, err)
		}
		st := store.Stats()
		fmt.Printf("\nArtifact cache: %d hits billed (as forecast), %d misses, %d entries live (%d bytes)\n",
			sched.CacheHits, st.Misses, store.Len(), store.Bytes())
		if blind.Feasible {
			fmt.Printf("Cache-aware plan bills $%.4f under the predicted hits; the cache-blind plan would bill $%.4f on the same store.\n",
				batchCostUnderHits(bp, specs), batchCostUnderHits(blind, specs))
		} else {
			fmt.Printf("The cache-blind batch is infeasible at these deadlines; only the cache-aware plan clears them.\n")
		}
	}

	// The baseline: every job's knapsack solved in isolation, executed
	// on the same fleet — statically and adaptively (the jobs carry
	// their choice tables, so queue-starved ones are re-planned).
	static, err := core.ExecuteBatchPlan(lib, specs, ibp, opts, fleet.Clone(), false)
	if err != nil {
		cli.Fail(prog, err)
	}
	adaptive, err := core.ExecuteBatchPlan(lib, specs, ibp, opts, fleet.Clone(), true)
	if err != nil {
		cli.Fail(prog, err)
	}
	fmt.Printf("\n%-34s %10s %10s %10s %8s\n", "execution", "cost ($)", "makespan", "queued", "missed")
	rows := []struct {
		name  string
		sched *flow.Schedule
	}{
		{"independent plans, static", static},
		{"independent plans, adaptive", adaptive},
		{"co-optimized batch", sched},
	}
	for _, r := range rows {
		fmt.Printf("%-34s %10.4f %9.0fs %9.0fs %8d\n",
			r.name, r.sched.TotalCostUSD, r.sched.MakespanSec, r.sched.TotalWaitSec, r.sched.DeadlinesMissed)
	}
	if sched.TotalCostUSD <= static.TotalCostUSD+1e-9 {
		fmt.Printf("\nCo-optimization meets %d more deadline(s) than the static baseline at no extra busy-time cost beyond the plan.\n\n",
			static.DeadlinesMissed-sched.DeadlinesMissed)
	} else {
		fmt.Printf("\nCo-optimization pays $%.4f over the static baseline to recover %d deadline(s).\n\n",
			sched.TotalCostUSD-static.TotalCostUSD, static.DeadlinesMissed-sched.DeadlinesMissed)
	}
}

// spotCompare is the -spot mode: plan the named designs' batch three
// ways — on-demand only, naively trusting spot prices, and with
// revocation-risk-adjusted expected costs — and execute all three on
// the same spot-priced fleet under identical seeded revocation
// timelines. Deadlines are slack x each job's cheapest on-demand
// serial plan, so the on-demand execution always meets them; the
// interesting question is what the two spot strategies pay and miss.
func spotCompare(lib *techlib.Library, catalog *cloud.Catalog, names []string, opts core.CharacterizeOptions, slack float64, fleetSpec string, seed int64, rate float64) {
	spotCat, hazards, err := cli.SpotCatalog(catalog, cli.SpotDiscount, rate)
	if err != nil {
		cli.Fail(prog, err)
	}
	if fleetSpec == "" {
		// Two machines per type: the on-demand strategy fits the batch
		// without contention, so any miss it would show is purely the
		// deadline sizing, not the fleet.
		fleetSpec = "gp.2x=2,mem.2x=2,gp.2x.spot=2,mem.2x.spot=2"
	}
	fleet, err := cloud.ParseFleetSpec(spotCat, fleetSpec)
	if err != nil {
		cli.Fail(prog, err)
	}
	retry := flow.RetryPolicy{MaxAttempts: 200, BackoffSec: 15}

	// Each design's on-demand deployment problem and its spot-extended
	// twin share one deadline: slack x the cheapest on-demand plan.
	ds, err := cli.Designs(lib, names, opts, catalog, spotCat)
	if err != nil {
		cli.Fail(prog, err)
	}
	odSpecs, spotSpecs := cli.BatchSpecs(ds, 0), cli.BatchSpecs(ds, 1)
	for i, d := range ds {
		cheapest, err := d.Probs[0].Optimize(d.Probs[0].UnderProvision().TotalTime)
		if err != nil {
			cli.Fail(prog, err)
		}
		odSpecs[i].DeadlineSec = int(slack * float64(cheapest.TotalTime))
		spotSpecs[i].DeadlineSec = odSpecs[i].DeadlineSec
	}

	type strategy struct {
		name  string
		specs []core.BatchJobSpec
		opts  core.BatchOptions
	}
	strategies := []strategy{
		{"on-demand only", odSpecs, core.BatchOptions{Retry: retry}},
		{"naive spot", spotSpecs, core.BatchOptions{Retry: retry}},
		{"risk-adjusted spot", spotSpecs, core.BatchOptions{Hazards: mckp.Hazards(hazards), Retry: retry}},
	}

	fmt.Printf("Preemptible fleet: %d jobs on %s (hazard %.0f/h per spot instance, seed %d, slack %.2fx)\n\n",
		len(names), fleet, rate, seed, slack)

	var scheds []*flow.Schedule
	for _, s := range strategies {
		bp, err := core.OptimizeBatch(s.specs, fleet, s.opts)
		if err != nil {
			cli.Fail(prog, err)
		}
		if !bp.Feasible {
			cli.Fail(prog, fmt.Errorf("%s: batch infeasible", s.name))
		}
		fmt.Printf("%s plans:\n", s.name)
		for i, spec := range s.specs {
			fmt.Printf("  %-12s deadline %5ds  %s\n", spec.Name, spec.DeadlineSec, picksString(bp.Plans[i]))
		}
		// Planning sees the unarmed fleet: the naive strategy's whole
		// mistake is trusting nominal spot prices. Each execution runs on
		// a clone armed with the same seed, so all three strategies face
		// identical per-instance revocation timelines.
		sched, err := core.ExecuteBatchPlan(lib, s.specs, bp, opts, cli.Arm(fleet.Clone(), seed, hazards), false)
		if err != nil {
			cli.Fail(prog, err)
		}
		// A job revoked past its attempt cap is a legitimate outcome of
		// the naive gamble — reported, not fatal. Anything else is a bug.
		for _, j := range sched.Jobs {
			if j.Err != nil && !strings.Contains(j.Err.Error(), "revoked on attempt") {
				cli.Fail(prog, j.Err)
			}
		}
		scheds = append(scheds, sched)
		fmt.Println()
	}

	fmt.Printf("Executed under the same seeded revocation timelines:\n\n")
	fmt.Printf("%-20s %10s %10s %12s %11s %8s %8s\n",
		"strategy", "cost ($)", "makespan", "revocations", "lost work", "missed", "failed")
	for i, s := range strategies {
		sched := scheds[i]
		fmt.Printf("%-20s %10.4f %9.0fs %12d %10.0fs %8d %8d\n",
			s.name, sched.TotalCostUSD, sched.MakespanSec,
			sched.Revocations, sched.RetriedSec, sched.DeadlinesMissed, sched.Failed)
	}

	naive, risk := scheds[1], scheds[2]
	fmt.Printf("\n%-12s %9s | %9s %9s %6s | %9s %9s %6s\n",
		"job", "deadline", "naive fin", "lost", "", "risk fin", "lost", "")
	for i := range spotSpecs {
		nj, rj := naive.Jobs[i], risk.Jobs[i]
		status := func(j flow.JobResult) string {
			switch {
			case j.Err != nil:
				return "FAILED"
			case j.DeadlineMet:
				return "met"
			}
			return "MISSED"
		}
		fmt.Printf("%-12s %8ds | %8.0fs %8.0fs %6s | %8.0fs %8.0fs %6s\n",
			spotSpecs[i].Name, spotSpecs[i].DeadlineSec,
			nj.FinishSec, nj.RetriedSec, status(nj),
			rj.FinishSec, rj.RetriedSec, status(rj))
	}

	naiveBad := naive.DeadlinesMissed + naive.Failed
	riskBad := risk.DeadlinesMissed + risk.Failed
	switch {
	case riskBad < naiveBad && risk.TotalCostUSD <= naive.TotalCostUSD:
		fmt.Printf("\nRisk-adjusted planning recovers %d job(s) the naive spot gamble misses or loses and bills $%.4f less.\n\n",
			naiveBad-riskBad, naive.TotalCostUSD-risk.TotalCostUSD)
	case riskBad < naiveBad:
		fmt.Printf("\nRisk-adjusted planning recovers %d job(s) the naive spot gamble misses or loses for $%.4f extra.\n\n",
			naiveBad-riskBad, risk.TotalCostUSD-naive.TotalCostUSD)
	default:
		fmt.Printf("\nRisk-adjusted and naive spot planning tie on deadlines at this hazard rate.\n\n")
	}
}

func printStageTable(prob *core.DeploymentProblem) {
	fmt.Printf("%-12s %-18s", "task", "family")
	for _, c := range prob.Stages[0] {
		fmt.Printf("%10dv", c.Instance.VCPUs)
	}
	fmt.Println()
	for i, stage := range prob.Stages {
		k := flow.JobKinds()[i]
		fmt.Printf("%-12s %-18s", k, stage[0].Instance.Family)
		for _, c := range stage {
			fmt.Printf("%10.0fs", c.Seconds)
		}
		fmt.Println()
		fmt.Printf("%-12s %-18s", "", "cost ($)")
		for _, c := range stage {
			fmt.Printf("%11.4f", c.Cost)
		}
		fmt.Println()
	}
}

func picksString(p *core.Plan) string {
	parts := make([]string, len(p.Picks))
	for i, pick := range p.Picks {
		parts[i] = fmt.Sprintf("%s:%s", pick.Job, pick.Instance.Name)
	}
	return strings.Join(parts, " ")
}

// batchCostUnderHits prices a joint plan's bill given the predicted
// hits: a hit stage is served from the store for free, every other
// stage bills its pick — the common yardstick for comparing the
// cache-aware and cache-blind plans over the same store.
func batchCostUnderHits(bp *core.BatchPlan, specs []core.BatchJobSpec) float64 {
	var total float64
	for i, plan := range bp.Plans {
		hits := specs[i].CacheHits
		for l, pick := range plan.Picks {
			if l >= len(hits) || !hits[l] {
				total += pick.Cost
			}
		}
	}
	return total
}

// parseDeadlines reads -deadlines, refusing a malformed or negative
// entry before any design is characterized.
func parseDeadlines(s string) []int {
	if s == "" {
		return nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			cli.Fail(prog, fmt.Errorf("bad deadline %q: %w", f, err))
		}
		if v < 0 {
			cli.Fail(prog, fmt.Errorf("-deadlines: deadline %d must not be negative", v))
		}
		out = append(out, v)
	}
	return out
}
