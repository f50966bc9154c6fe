// Command edaflow runs an EDA flow — synthesis, placement, routing,
// static timing — on one design through the composable flow.Pipeline
// API, streaming per-stage progress, and prints the artifacts each
// stage produces plus (optionally) the per-stage performance profile
// under a chosen VM configuration. With -fleet it instead schedules a
// batch of copies of the flow over a bounded instance fleet and prints
// the contended schedule and the fleet's utilization/cost ledger.
//
// Usage:
//
//	edaflow -design ibex -scale 0.05 -recipe resyn2 -vcpus 4
//	edaflow -bench multiplier -scale 0.2
//	edaflow -design ibex -stages synthesis,sta
//	edaflow -design ibex -fleet mem.8x=2 -batch 4 -instance mem.8x
//	edaflow -design aes -fleet gp.4x=1,mem.8x=1 -batch 3 -policy firstfit -minbill 60
//	edaflow -design ibex -fleet gp.1x=1,gp.8x=1,mem.1x=1,mem.8x=1 -batch 3 -policy plan
//	edaflow -design aes -fleet mem.4x.spot=2,mem.4x=1 -batch 3 -instance mem.4x.spot -spot -hazard-seed 11 -escalate-after 1
//	edaflow -bench adder -scale 100 -stages synthesis -fleet gp.4x=4 -policy firstfit -hier -hier-grain 20000
//
// -hier switches the -fleet batch to hierarchical mode: instead of
// -batch copies of the whole flow, the one design is split into cone
// partitions of roughly -hier-grain AND nodes, each partition runs as
// its own schedulable job on the fleet, and the optimized sub-designs
// are stitched back into one equivalence-checked graph — design-level
// parallelism for million-gate designs.
//
// -spot prices revocable twins of every catalog type at a 70%
// discount and arms a seeded revocation injector over the fleet's
// spot instances: revoked stages lose only the work since their last
// stage-boundary checkpoint, re-enter the queue with backoff, and can
// escalate to the on-demand counterpart after -escalate-after
// revocations. The schedule and ledger report the revocations and the
// lost work alongside the usual columns.
package main

import (
	"flag"
	"fmt"
	"math"
	"slices"
	"strings"

	"edacloud/internal/aig"
	"edacloud/internal/cache"
	"edacloud/internal/cli"
	"edacloud/internal/cloud"
	"edacloud/internal/core"
	"edacloud/internal/designs"
	"edacloud/internal/flow"
	"edacloud/internal/perf"
	"edacloud/internal/synth"
	"edacloud/internal/techlib"
)

const prog = "edaflow"

// The flags are package state: main checks them, and the batch modes
// read them where they need them.
var (
	design        = flag.String("design", "", "evaluation design name (dyn_node..sparc_core)")
	bench         = flag.String("bench", "", "benchmark name (adder..voter); alternative to -design")
	scale         = flag.Float64("scale", 0.05, "design scale factor")
	recipeName    = flag.String("recipe", "resyn2", "synthesis recipe (raw, b, rw, rf, resyn, resyn2, compress, deep)")
	vcpus         = flag.Int("vcpus", 4, "VM vCPU count for the performance profile")
	registers     = flag.Bool("registers", false, "register all primary outputs behind DFFs")
	clock         = flag.Float64("clock", 1.0, "clock period for STA (ns)")
	stages        = flag.String("stages", "", "comma-separated partial flow (e.g. synthesis,sta); empty runs the full flow")
	workers       = flag.Int("workers", 0, "worker-pool bound for every stage (0 = all cores; results identical)")
	fleetSpec     = flag.String("fleet", "", "schedule a batch over this bounded fleet (name=count,...) instead of one local run")
	batch         = flag.Int("batch", 4, "number of flow copies in the -fleet batch")
	instName      = flag.String("instance", "mem.4x", "instance type each -fleet batch job rents under -policy single; firstfit jobs size their probes from it")
	policyName    = flag.String("policy", "single", "fleet placement policy: single (job keeps one machine), firstfit (greedy any-machine, per stage), or plan (co-optimized stage plans, the remaining stages re-planned in-table when queueing eats a job's slack; needs -design)")
	minBill       = flag.Float64("minbill", 0, "minimum billing granularity in seconds (0 = pure per-second)")
	deadlineSec   = flag.Float64("deadline", 0, "per-job completion deadline in simulated seconds (0 = none)")
	spot          = flag.Bool("spot", false, "price revocable spot twins of every type at a 70% discount and arm the revocation injector")
	hazardSeed    = flag.Int64("hazard-seed", 1, "revocation timeline seed for -spot")
	hazardRate    = flag.Float64("hazard-rate", 60, "revocations per spot-instance-hour for -spot")
	escalateAfter = flag.Int("escalate-after", 0, "escalate a stage to the on-demand counterpart after this many revocations (0 = never)")
	useCache      = flag.Bool("cache", false, "attach a content-addressed artifact store across the -fleet batch: identical stage work dedups to cache hits (plan policy also plans against predicted hits)")
	hier          = flag.Bool("hier", false, "hierarchical -fleet mode: schedule the design's cone partitions as the batch jobs instead of -batch copies, then stitch the optimized sub-designs back together (-batch is ignored)")
	hierGrain     = flag.Int("hier-grain", 2000, "target AND nodes per sub-design in -hier mode")
)

func main() {
	flag.Parse()
	plan := *fleetSpec != "" && *policyName == "plan"
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	needsSpot := func(name string) error {
		return cli.Refuse(set[name] && !*spot, "-%s needs -spot: only spot instances are revoked", name)
	}
	recipe, recipeErr := synth.RecipeByName(*recipeName)
	flowOpts, stagesErr := pickStages(*stages, []flow.Option{
		flow.WithRecipe(recipe),
		flow.WithRegisterOutputs(*registers),
		flow.WithClockPeriodNs(*clock),
	})
	cli.Check(prog,
		cli.NoArgs(flag.Args()),
		recipeErr,
		stagesErr,
		cli.Refuse(!slices.Contains([]string{"single", "firstfit", "plan"}, *policyName),
			"unknown policy %q (want single, firstfit or plan)", *policyName),
		cli.Count("workers", *workers),
		cli.Refuse(*fleetSpec != "" && !*hier && *batch < 1, "-batch %d: a -fleet batch needs at least 1 copy", *batch),
		cli.Refuse(*vcpus < 1, "-vcpus %d: a VM needs at least 1 vCPU", *vcpus),
		cli.Positive("clock", *clock),
		cli.Count("escalate-after", *escalateAfter),
		cli.HazardRate(*hazardRate),
		cli.NonNegative("deadline", *deadlineSec),
		cli.NonNegative("minbill", *minBill),
		cli.Refuse(*hierGrain < 1, "-hier-grain %d: a sub-design needs at least 1 AND node", *hierGrain),
		// The plan path solves in whole seconds: a fractional deadline
		// would truncate (0.5 to no deadline at all); from 2^53 on a
		// float skips whole seconds, and further up the knapsack's int
		// overflows.
		cli.Refuse(*policyName == "plan" && (*deadlineSec != math.Trunc(*deadlineSec) || *deadlineSec >= 1<<53),
			"-deadline %v: -policy plan needs a whole number of seconds below 2^53", *deadlineSec),
		cli.Refuse(*fleetSpec == "" && *spot, "-spot needs -fleet: revocations only exist in the fleet simulation"),
		cli.Refuse(*fleetSpec == "" && *useCache, "-cache needs -fleet: the artifact store dedups across a batch"),
		cli.Refuse(*fleetSpec == "" && *hier, "-hier needs -fleet: sub-designs are scheduled as fleet jobs"),
		cli.Refuse(*fleetSpec == "" && *policyName != "single", "-policy %s needs -fleet: placement policies only exist in the fleet simulation", *policyName),
		cli.Refuse(*fleetSpec == "" && *deadlineSec != 0, "-deadline needs -fleet: deadlines are checked against the fleet schedule"),
		cli.Refuse(*fleetSpec == "" && *minBill != 0, "-minbill needs -fleet: only fleet leases are billed"),
		cli.Refuse(*fleetSpec == "" && *escalateAfter != 0, "-escalate-after needs -fleet: only revoked fleet stages escalate"),
		needsSpot("escalate-after"),
		needsSpot("hazard-seed"),
		needsSpot("hazard-rate"),
		// The plan path executes through core.ExecuteBatchPlan, which
		// always runs the full default flow at the default clock: flags
		// it would silently drop are refused instead.
		cli.Refuse(plan && (*stages != "" || *registers || *clock != 1.0), "-policy plan runs the full default flow; -stages, -registers and -clock do not apply"),
		cli.Refuse(plan && *hier, "-hier applies to the single and firstfit policies; plan solves per-design choice tables, not sub-design splits"),
		cli.Refuse(plan && *spot, "-spot applies to the single and firstfit policies; use optimize -spot for risk-adjusted planning"),
		cli.Refuse(plan && *design == "", "-policy plan needs -design (it characterizes the design to build choice tables)"),
	)

	var g *aig.Graph
	var err error
	switch {
	case *design != "":
		g, err = designs.EvalDesign(*design, *scale)
	case *bench != "":
		g, err = designs.Benchmark(*bench, *scale)
	default:
		g, err = designs.EvalDesign("ibex", *scale)
	}
	if err != nil {
		cli.Fail(prog, err)
	}

	fmt.Printf("Design %s: %v\n\n", g.Name, g.Stats())

	lib := techlib.Default14nm()

	if *fleetSpec != "" {
		runFleetBatch(g, lib, recipe, flowOpts)
		return
	}

	estCells := flow.EstimateCells(g.NumAnds())
	opts := append(flowOpts,
		flow.WithWorkers(*workers),
		flow.WithNewProbe(func(flow.JobKind) *perf.Probe {
			return flow.NewJobProbe(*vcpus, estCells)
		}),
		flow.WithEvents(func(e flow.Event) {
			switch e.Type {
			case flow.StageStarted:
				fmt.Printf("[%d/%d] %s...\n", e.Index+1, e.Total, e.Stage)
			case flow.StageFinished:
				if e.Err != nil {
					fmt.Printf("[%d/%d] %s failed: %v\n", e.Index+1, e.Total, e.Stage, e.Err)
				}
			}
		}),
	)

	rc, err := flow.NewPipeline(opts...).Run(g, lib)
	if err != nil {
		cli.Fail(prog, err)
	}

	fmt.Println()
	if rc.Netlist != nil {
		fmt.Printf("Synthesis  (%s): %v -> %s\n", recipe.Name, rc.Optimized.Stats(), rc.Netlist.Stats())
	}
	if rc.Placement != nil {
		fmt.Printf("Placement  : die %.1f x %.1f um, HPWL %.1f um (global %.1f), overflow %.3f\n",
			rc.Placement.DieW, rc.Placement.DieH, rc.Placement.HPWL,
			rc.Placement.HPWLGlobal, rc.Placement.Overflow)
	}
	if rc.Routing != nil {
		fmt.Printf("Routing    : grid %dx%d, %d connections, wirelength %d, overflow %d, %d RRR iters\n",
			rc.Routing.GridW, rc.Routing.GridH, rc.Routing.Connections,
			rc.Routing.Wirelength, rc.Routing.Overflow, rc.Routing.Iterations)
	}
	if rc.Timing != nil {
		fmt.Printf("STA        : max arrival %.3f ns, WNS %.3f ns, TNS %.3f ns over %d endpoints\n",
			rc.Timing.MaxArrival, rc.Timing.WNS, rc.Timing.TNS, rc.Timing.Endpoints)
		fmt.Printf("Critical path: %d cells\n", len(rc.Timing.CriticalPath))
	}

	fmt.Printf("\nPerformance profile at %d vCPUs:\n", *vcpus)
	m := perf.Xeon14(*vcpus)
	for _, k := range flow.JobKinds() {
		rep := rc.Reports[k]
		if rep == nil {
			continue
		}
		c := rep.Total()
		fmt.Printf("  %-10s %12d instr, %6.2f%% br-miss, %5.1f%% cache-miss, %5.1f%% AVX, %.4fs\n",
			k, c.Instrs, c.BranchMissPct(), c.CacheMissPct(), c.FPVectorPct(), m.Seconds(rep))
	}
}

// runFleetBatch schedules copies of the configured flow over a bounded
// fleet — the paper's batch-deployment scenario — and prints the
// contended schedule plus the fleet's utilization/cost ledger. The
// plan policy first co-optimizes the copies' stage plans against the
// fleet (core.OptimizeBatch) and re-plans a queue-starved job's
// remaining stages within their choice tables at placement time.
// flowOpts shape each copy's pipeline under the other two policies.
func runFleetBatch(g *aig.Graph, lib *techlib.Library, recipe synth.Recipe, flowOpts []flow.Option) {
	catalog := cloud.DefaultCatalog()
	var hazards map[string]float64
	var retry flow.RetryPolicy
	if *spot {
		var err error
		if catalog, hazards, err = cli.SpotCatalog(catalog, cli.SpotDiscount, *hazardRate); err != nil {
			cli.Fail(prog, err)
		}
		retry = flow.RetryPolicy{MaxAttempts: 50, BackoffSec: 30, EscalateAfter: *escalateAfter}
	}
	if *minBill > 0 {
		catalog = catalog.WithMinBill(*minBill)
	}
	fleet, err := cloud.ParseFleetSpec(catalog, *fleetSpec)
	if err != nil {
		cli.Fail(prog, err)
	}
	cli.Arm(fleet, *hazardSeed, hazards)
	var store *cache.Store
	if *useCache {
		store = cache.New(0)
	}

	var sched *flow.Schedule
	var hb *flow.HierarchicalBatch
	perJobDeadlines := *deadlineSec > 0
	switch *policyName {
	case "single", "firstfit":
		inst, err := catalog.ByName(*instName)
		if err != nil {
			cli.Fail(prog, err)
		}
		job := flow.Job{
			Design:      g,
			Lib:         lib,
			Options:     flowOpts,
			Instance:    inst,
			DeadlineSec: *deadlineSec,
			Retry:       retry,
			// Extrapolate the reduced-scale simulation to full-flow
			// magnitudes (the dataset generator's representative factor).
			WorkScale: 2e4,
		}
		if *policyName == "firstfit" {
			// Every stage queues for the zero type: whichever instance
			// frees first.
			job.Plan = flow.StagePlan{}
			for _, k := range flow.JobKinds() {
				job.Plan[k] = cloud.InstanceType{}
			}
		}
		var jobs []flow.Job
		if *hier {
			hb, err = flow.Hierarchical(job, *hierGrain)
			if err != nil {
				cli.Fail(prog, err)
			}
			jobs = hb.Jobs
			fmt.Printf("Hierarchical split: %d sub-designs (grain %d ANDs)\n", len(hb.Subs), *hierGrain)
			fmt.Printf("%-12s %9s %9s %9s %9s\n", "sub", "ands", "inputs", "outputs", "exports")
			for pi, sub := range hb.Subs {
				fmt.Printf("%-12s %9d %9d %9d %9d\n", hb.Jobs[pi].Name,
					sub.Graph.NumAnds(), len(sub.Imports), len(sub.Outputs), len(sub.Exports))
			}
			fmt.Println()
		} else {
			for i := 0; i < *batch; i++ {
				job.Name = fmt.Sprintf("%s#%d", g.Name, i)
				jobs = append(jobs, job)
			}
		}
		if sched, err = (&flow.Scheduler{Workers: *workers, Fleet: fleet, Cache: store}).Run(nil, jobs); err != nil {
			cli.Fail(prog, err)
		}
	case "plan":
		sched = runPlanBatch(lib, catalog, fleet, recipe, store)
		perJobDeadlines = true
	}

	label := map[string]string{"single": "single-instance", "firstfit": "first-fit", "plan": "plan"}[*policyName]
	batchDesc := fmt.Sprintf("%d x %s", *batch, g.Name)
	if hb != nil {
		batchDesc = fmt.Sprintf("%s split into %d sub-designs", g.Name, len(hb.Jobs))
	}
	if *spot {
		fmt.Printf("Fleet batch: %s on %s (policy %s, hazard %.0f/h, seed %d)\n\n",
			batchDesc, fleet, label, *hazardRate, *hazardSeed)
		fmt.Printf("%-12s %9s %9s %9s %9s %10s %6s %9s %9s\n",
			"job", "start", "busy", "wait", "finish", "cost ($)", "revs", "lost", "deadline")
	} else {
		fmt.Printf("Fleet batch: %s on %s (policy %s)\n\n", batchDesc, fleet, label)
		fmt.Printf("%-12s %9s %9s %9s %9s %10s %9s\n",
			"job", "start", "busy", "wait", "finish", "cost ($)", "deadline")
	}
	for _, j := range sched.Jobs {
		if j.Err != nil {
			cli.Fail(prog, j.Err)
		}
		status := "met"
		if !j.DeadlineMet {
			status = "MISSED"
		}
		if !perJobDeadlines {
			status = "-"
		}
		if *spot {
			fmt.Printf("%-12s %8.0fs %8.0fs %8.0fs %8.0fs %10.4f %6d %8.0fs %9s\n",
				j.Name, j.StartSec, j.Seconds, j.WaitSec, j.FinishSec, j.CostUSD,
				j.Revocations, j.RetriedSec, status)
			continue
		}
		fmt.Printf("%-12s %8.0fs %8.0fs %8.0fs %8.0fs %10.4f %9s\n",
			j.Name, j.StartSec, j.Seconds, j.WaitSec, j.FinishSec, j.CostUSD, status)
	}
	if *spot {
		fmt.Printf("\n%-12s %-10s %-14s %7s %9s %9s %9s\n",
			"job", "stage", "instance", "attempt", "start", "busy", "outcome")
		for _, j := range sched.Jobs {
			for _, st := range j.Stages {
				outcome := "done"
				if st.Revoked {
					outcome = "REVOKED"
				}
				fmt.Printf("%-12s %-10s %-14s %7d %8.0fs %8.0fs %9s\n",
					j.Name, st.Kind, st.Instance, st.Attempt, st.StartSec, st.Seconds, outcome)
			}
		}
	}
	if *policyName == "plan" {
		fmt.Printf("\n%-12s %-10s %-10s %9s %9s %9s\n",
			"job", "stage", "instance", "start", "wait", "busy")
		for _, j := range sched.Jobs {
			for _, st := range j.Stages {
				inst := st.Instance
				if st.Cached {
					inst = "(cache)"
				}
				fmt.Printf("%-12s %-10s %-10s %8.0fs %8.0fs %8.0fs\n",
					j.Name, st.Kind, inst, st.StartSec, st.WaitSec, st.Seconds)
			}
		}
	}
	if *spot {
		fmt.Printf("\nBatch: $%.4f, makespan %.0fs, %.0fs queued, %d revocations, %.0fs lost to preemption, fleet %.1f%% utilized\n\n",
			sched.TotalCostUSD, sched.MakespanSec, sched.TotalWaitSec,
			sched.Revocations, sched.RetriedSec, sched.UtilizationPct)
	} else {
		fmt.Printf("\nBatch: $%.4f, makespan %.0fs, %.0fs queued, fleet %.1f%% utilized\n\n",
			sched.TotalCostUSD, sched.MakespanSec, sched.TotalWaitSec, sched.UtilizationPct)
	}
	if store != nil {
		st := store.Stats()
		fmt.Printf("Artifact cache: %d hits, %d misses, %d entries live (%d bytes)\n\n",
			st.Hits, st.Misses, store.Len(), store.Bytes())
	}
	fmt.Printf("%-12s %7s %9s %10s %7s\n", "instance", "leases", "busy", "cost ($)", "util")
	for _, row := range sched.Fleet.Ledger(sched.MakespanSec) {
		fmt.Printf("%-12s %7d %8.0fs %10.4f %6.1f%%\n",
			row.ID, row.Leases, row.BusySec, row.CostUSD, row.UtilizationPct)
	}
	if hb != nil {
		stitched, err := hb.Stitch(sched.Jobs)
		if err != nil {
			cli.Fail(prog, err)
		}
		equiv := "equivalent"
		if !aig.SimEquiv(g, stitched, 1, 16) {
			equiv = "NOT EQUIVALENT"
		}
		fmt.Printf("\nStitched: %s (%s to the input design)\n", stitched.Stats(), equiv)
	}
}

// runPlanBatch characterizes the design, co-optimizes the batch's
// stage plans against the fleet, prints them, and executes the batch
// on those plans — each job carrying its choice table so a
// queue-starved job's remaining stages are re-planned at placement
// time. The fleet is mutated with the run's leases for the ledger.
func runPlanBatch(lib *techlib.Library, catalog *cloud.Catalog, fleet *cloud.Fleet, recipe synth.Recipe, store *cache.Store) *flow.Schedule {
	charOpts := core.CharacterizeOptions{Scale: *scale, Recipe: recipe, Workers: *workers}
	ds, err := cli.Designs(lib, slices.Repeat([]string{*design}, *batch), charOpts, catalog)
	if err != nil {
		cli.Fail(prog, err)
	}
	specs := cli.BatchSpecs(ds, 0)
	for i := range specs {
		specs[i].DeadlineSec = int(*deadlineSec)
	}
	if *deadlineSec <= 0 {
		// Default deadlines: 1.3x each copy's independently optimal
		// serial runtime.
		if _, err := core.SlackDeadlines(specs, fleet, 1.3); err != nil {
			cli.Fail(prog, err)
		}
	}
	if store != nil {
		// Predict which stages the store (plus earlier copies in this
		// batch) will serve, so the joint solve can spend each copy's
		// deadline budget on the stages it actually computes.
		if err := core.PredictCacheHits(store, lib, specs, charOpts); err != nil {
			cli.Fail(prog, err)
		}
	}
	bp, err := core.OptimizeBatch(specs, fleet, core.BatchOptions{Cache: store})
	if err != nil {
		cli.Fail(prog, err)
	}
	if !bp.Feasible {
		cli.Fail(prog, fmt.Errorf("batch infeasible: a copy cannot meet its own deadline alone"))
	}
	fmt.Printf("Co-optimized plans (method %s):\n", bp.Selection.Method)
	for i := range specs {
		fmt.Printf("  %-12s deadline %4ds  %s\n", specs[i].Name, specs[i].DeadlineSec, bp.Plans[i])
	}
	fmt.Println()
	sched, err := core.ExecuteBatchPlan(lib, specs, bp, charOpts, fleet, true)
	if err != nil {
		cli.Fail(prog, err)
	}
	return sched
}

// pickStages returns opts with the -stages flag's partial flow: the
// named stages of the full flow opts build, in the order the flag lists
// them. An empty flag leaves the full flow.
func pickStages(spec string, opts []flow.Option) ([]flow.Option, error) {
	if spec == "" {
		return opts, nil
	}
	full := flow.NewPipeline(opts...).Stages()
	var picked []flow.Stage
	for _, name := range strings.Split(spec, ",") {
		i := slices.IndexFunc(full, func(s flow.Stage) bool { return s.Name() == strings.TrimSpace(name) })
		if i < 0 {
			return nil, fmt.Errorf("unknown stage %q (want one of %v)", name, flow.JobKinds())
		}
		picked = append(picked, full[i])
	}
	return append(opts, flow.WithStages(picked...)), nil
}
