// Multi-tenant study: the paper characterizes each EDA job confined to
// a few vCPUs of one host; in the cloud, tenants rent such machines
// side by side and share a fleet. This example follows that deployment
// from a fixed batch to an online service.
//
// Part one runs the deployment the paper actually optimizes for: a
// batch of independent design flows scheduled concurrently onto their
// own cloud instances with flow.Scheduler, each with a deadline, the
// batch accumulating a per-second bill.
//
// Part two bounds the fleet: the same four flows contend for two
// machines instead of renting four, so jobs queue, deadlines slip, and
// the fleet ledger shows the cost/utilization trade the paper's
// batch-deployment economics are about — here with AWS-style 60 s
// minimum billing.
//
// Part three co-optimizes the batch: instead of each flow's knapsack
// picking its machines as if they appear on demand, core.OptimizeBatch
// solves all four plans jointly against the bounded fleet's capacity
// (shadow prices on contended instance types) and predicts the
// contended schedule exactly. Deadline-free, the joint plan never
// costs more than the four plans optimized independently and executed
// back to back on the same fleet; with deadlines added, the
// co-optimized plans and the placement-time re-plan (jobs executed
// with their choice tables) both pay for faster machines to recover
// misses the static independent plans incur.
//
// Part four goes online: the same job shapes served by the edad
// serving engine (internal/serve) under Poisson arrivals — admission
// control promises each deadlined job a finish time or rejects it,
// every completion re-optimizes the uncommitted tail of the schedule,
// and per-tenant weighted quotas meter concurrent spend.
//
// Part five adds the fleet-wide artifact cache: templates carry their
// content-derived chain keys, so a job whose prefix another tenant
// already computed is planned as cache hits — and a deadline that is
// unattainable cold is admitted warm.
//
// Part six lets a tenant spend its quota on search instead of a
// single fixed flow: a small DSE exploration (internal/dse) runs as a
// workload on the tenant's bounded fleet slice, sampling recipes and
// timing parameters, pruning with the GCN runtime predictor, and
// scoring survivors with the real engines. Routed through a shared
// artifact store, trials that share a synthesis prefix dedup — the
// same search finishes with a smaller simulated bill.
//
//	go run ./examples/multitenant
package main

import (
	"context"
	"fmt"
	"log"

	"edacloud/internal/cache"
	"edacloud/internal/cloud"
	"edacloud/internal/core"
	"edacloud/internal/designs"
	"edacloud/internal/dse"
	"edacloud/internal/flow"
	"edacloud/internal/gcn"
	"edacloud/internal/mckp"
	"edacloud/internal/serve"
	"edacloud/internal/synth"
	"edacloud/internal/techlib"
)

func main() {
	lib := techlib.Default14nm()

	// Part one: four tenants' flows as one concurrently scheduled batch,
	// each on its own rented instance.
	catalog := cloud.DefaultCatalog()
	inst, err := catalog.Size(cloud.MemoryOptimized, 8)
	if err != nil {
		log.Fatal(err)
	}
	var jobs []flow.Job
	for _, name := range []string{"dyn_node", "aes", "ibex", "jpeg"} {
		g, err := designs.EvalDesign(name, 0.02)
		if err != nil {
			log.Fatal(err)
		}
		jobs = append(jobs, flow.Job{
			Name:     name,
			Design:   g,
			Lib:      lib,
			Instance: inst,
			// Extrapolate the reduced-scale simulation to full-flow
			// magnitudes (the dataset generator's representative factor)
			// and require each block inside a shared batch deadline.
			WorkScale:   2e4,
			DeadlineSec: 70,
		})
	}
	sched, err := (&flow.Scheduler{}).Run(context.Background(), jobs)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Scheduled batch: %d flows on dedicated %s instances\n\n", len(sched.Jobs), inst.Name)
	fmt.Printf("%-12s %10s %10s %10s\n", "design", "runtime", "cost ($)", "deadline")
	for _, j := range sched.Jobs {
		if j.Err != nil {
			log.Fatal(j.Err)
		}
		status := "met"
		if !j.DeadlineMet {
			status = "MISSED"
		}
		fmt.Printf("%-12s %9.0fs %10.4f %10s\n", j.Name, j.Seconds, j.CostUSD, status)
	}
	fmt.Printf("\nBatch: $%.4f total, makespan %.0fs, %d deadline(s) missed\n",
		sched.TotalCostUSD, sched.MakespanSec, sched.DeadlinesMissed)

	// Part two: the same batch on a bounded fleet — two machines for
	// four flows, 60 s minimum billing. Jobs queue in order for the next
	// free instance; waits count against each job's deadline.
	bounded, err := cloud.ParseFleetSpec(catalog.WithMinBill(60), "mem.8x=2")
	if err != nil {
		log.Fatal(err)
	}
	sched, err = (&flow.Scheduler{Fleet: bounded}).Run(context.Background(), jobs)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nBounded fleet: %d flows contending for %s\n\n", len(sched.Jobs), bounded)
	fmt.Printf("%-12s %9s %9s %9s %10s %10s\n", "design", "start", "wait", "finish", "cost ($)", "deadline")
	for _, j := range sched.Jobs {
		if j.Err != nil {
			log.Fatal(j.Err)
		}
		status := "met"
		if !j.DeadlineMet {
			status = "MISSED"
		}
		fmt.Printf("%-12s %8.0fs %8.0fs %8.0fs %10.4f %10s\n",
			j.Name, j.StartSec, j.WaitSec, j.FinishSec, j.CostUSD, status)
	}
	fmt.Printf("\nBatch: $%.4f, makespan %.0fs, %d deadline(s) missed, fleet %.1f%% utilized\n",
		sched.TotalCostUSD, sched.MakespanSec, sched.DeadlinesMissed, sched.UtilizationPct)
	fmt.Println("Half the machines stretch the makespan and the queue, not the busy time;")
	fmt.Println("the 60 s billing floor makes the shortest flow cost more than its runtime.")

	// Part three: co-optimize the batch against a bounded heterogeneous
	// fleet. Each flow is characterized, its per-stage choice table
	// built, and the four knapsacks solved jointly under the fleet's
	// capacity profile.
	charOpts := core.CharacterizeOptions{Scale: 0.02}
	shared, err := cloud.ParseFleetSpec(catalog, "gp.1x=1,gp.8x=1,mem.1x=1,mem.8x=1")
	if err != nil {
		log.Fatal(err)
	}
	var specs []core.BatchJobSpec
	for _, name := range []string{"dyn_node", "aes", "ibex", "jpeg"} {
		char, err := core.CharacterizeEval(lib, name, charOpts)
		if err != nil {
			log.Fatal(err)
		}
		prob, err := core.BuildDeploymentProblem(char, catalog)
		if err != nil {
			log.Fatal(err)
		}
		specs = append(specs, core.BatchJobSpec{Name: name, Char: char, Prob: prob})
	}

	// Deadline-free first: the co-optimized batch must never cost more
	// than the four independently optimized plans executed back to back
	// on the same fleet — the independent solution is always one of its
	// candidates.
	bp, err := core.OptimizeBatch(specs, shared, core.BatchOptions{})
	if err != nil {
		log.Fatal(err)
	}
	batchSched, err := core.ExecuteBatchPlan(lib, specs, bp, charOpts, shared.Clone(), false)
	if err != nil {
		log.Fatal(err)
	}
	// Four independent core.ExecutePlan runs on one shared fleet: each
	// plan solved in isolation (restricted to the fleet's types, blind
	// to contention) and replayed back to back — later runs queue behind
	// the leases the earlier ones booked.
	indep, err := core.IndependentBatchPlan(specs, shared)
	if err != nil {
		log.Fatal(err)
	}
	serial := shared.Clone()
	var independentCost float64
	for i, spec := range specs {
		run, err := core.ExecutePlan(lib, spec.Char, indep.Plans[i], charOpts, serial)
		if err != nil {
			log.Fatal(err)
		}
		if run.Jobs[0].Err != nil {
			log.Fatal(run.Jobs[0].Err)
		}
		independentCost += run.Jobs[0].CostUSD
	}
	fmt.Printf("\nBatch co-optimization on %s (no deadlines):\n", shared)
	fmt.Printf("  four independent ExecutePlan runs, same fleet: $%.4f\n", independentCost)
	queued := 0
	for _, j := range batchSched.Jobs {
		if j.WaitSec > 0 {
			queued++
		}
	}
	fmt.Printf("  co-optimized batch plan, simulated:            $%.4f (forecast $%.4f, %d job(s) queued %.0fs)\n",
		batchSched.TotalCostUSD, bp.Forecast.TotalCostUSD, queued, batchSched.TotalWaitSec)
	if batchSched.TotalCostUSD <= independentCost+1e-9 {
		fmt.Println("  the batch plan beats or ties the independent plans' bill.")
	} else {
		fmt.Println("  WARNING: the batch plan cost more than the independent plans.")
	}

	// Now with deadlines tight enough that queueing breaks the
	// independent plans: the co-optimizer pays for faster machines where
	// the shadow prices say the queue would eat the slack, and jobs that
	// carry their choice tables are re-planned at placement time to
	// recover what static plans lose.
	ibp, err := core.SlackDeadlines(specs, shared, 1.3)
	if err != nil {
		log.Fatal(err)
	}
	static, err := core.ExecuteBatchPlan(lib, specs, ibp, charOpts, shared.Clone(), false)
	if err != nil {
		log.Fatal(err)
	}
	adaptive, err := core.ExecuteBatchPlan(lib, specs, ibp, charOpts, shared.Clone(), true)
	if err != nil {
		log.Fatal(err)
	}
	if bp, err = core.OptimizeBatch(specs, shared, core.BatchOptions{}); err != nil {
		log.Fatal(err)
	}
	coopt, err := core.ExecuteBatchPlan(lib, specs, bp, charOpts, shared.Clone(), false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nWith 1.3x serial deadlines on the same fleet:\n")
	fmt.Printf("  %-28s %10s %10s %8s\n", "execution", "cost ($)", "makespan", "missed")
	for _, row := range []struct {
		name  string
		sched *flow.Schedule
	}{
		{"independent plans, static", static},
		{"independent plans, adaptive", adaptive},
		{"co-optimized batch", coopt},
	} {
		fmt.Printf("  %-28s %10.4f %9.0fs %8d\n",
			row.name, row.sched.TotalCostUSD, row.sched.MakespanSec, row.sched.DeadlinesMissed)
	}
	fmt.Println("\nShadow prices move contended stages onto the fleet's faster machines ahead")
	fmt.Println("of time; adaptive execution makes the same trade reactively, re-planning a")
	fmt.Println("job's remaining stages once the queue has already eaten its slack.")

	// Part four: the serving layer. Parts one through three plan a batch
	// known up front; a real multi-tenant deployment sees jobs arrive
	// online. The edad engine (internal/serve) admits each arrival only
	// if a joint re-plan of everything in flight keeps every promise,
	// re-optimizes the uncommitted tail of the schedule at every
	// completion, and meters each tenant's concurrent spend against its
	// weighted quota.
	var templates []serve.Template
	for _, spec := range specs[:2] { // two designs are enough job shapes
		prob, err := spec.Prob.Restrict(shared)
		if err != nil {
			log.Fatal(err)
		}
		templates = append(templates, serve.Template{Name: spec.Name, Kinds: flow.JobKinds(), Classes: prob.Classes})
	}
	serveFleet, err := cloud.ParseFleetSpec(catalog, "gp.1x=1,gp.8x=1,mem.1x=1,mem.8x=1")
	if err != nil {
		log.Fatal(err)
	}
	var events int
	eng, err := serve.New(serve.Config{
		Fleet: serveFleet,
		Tenants: []serve.Tenant{
			{Name: "acme", Weight: 3},
			{Name: "blue", Weight: 1},
		},
		Templates: templates,
		OnEvent:   func(serve.Event) { events++ },
	})
	if err != nil {
		log.Fatal(err)
	}
	var tnames, dnames []string
	for _, t := range []string{"acme", "blue"} {
		tnames = append(tnames, t)
	}
	for _, tpl := range templates {
		dnames = append(dnames, tpl.Name)
	}
	trace, err := serve.TraceGen(serve.TraceConfig{
		Seed: 3, Jobs: 10, RatePerSec: 0.02, Burstiness: 0.3, SlackSec: 600,
		Tenants: tnames, Templates: dnames,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nOnline serving: %d arrivals over ~%.0fs of simulated time\n\n", len(trace), trace[len(trace)-1].ArrivalSec)
	fmt.Printf("%-10s %-10s %-8s %9s %10s %10s  %s\n", "job", "design", "tenant", "arrival", "deadline", "promised", "decision")
	for _, tj := range trace {
		st, err := eng.Submit(serve.SubmitRequest{
			Tenant: tj.Tenant, Template: tj.Template, Name: tj.Name,
			ArrivalSec: tj.ArrivalSec, DeadlineSec: tj.DeadlineSec,
		})
		if err != nil {
			log.Fatal(err)
		}
		verdict := st.Status
		if st.Status == serve.StatusRejected {
			verdict = "rejected: " + st.Reason
		}
		fmt.Printf("%-10s %-10s %-8s %8.1fs %9.0fs %9.0fs  %s\n",
			tj.Name, tj.Template, tj.Tenant, tj.ArrivalSec, tj.DeadlineSec, st.PromisedSec, verdict)
	}
	eng.Drain()
	rep := eng.Report()
	fmt.Printf("\n%s", rep)
	fmt.Printf("progress events streamed: %d\n", events)
	fmt.Println("\nAdmission promises are kept by construction: a re-plan is only adopted")
	fmt.Println("when every admitted job still meets the finish it was promised, and an")
	fmt.Println("arrival that would break one is rejected at the door.")

	// Part five: fleet-wide artifact dedup across tenants. Every stage of
	// a flow has a content-derived chain key (core.CacheChain): the same
	// design, recipe and tool version always hash to the same chain, no
	// matter who submits it. Templates that carry their chains let the
	// serving engine spot that an arriving job's prefix was already
	// computed by an admitted job — of any tenant — and plan those
	// stages as cache hits: no machine booked, nothing billed, probe
	// time only. Here both tenants run the same design, so the shared
	// synthesis prefix extends through the whole chain, and a deadline
	// that is impossible cold becomes admissible warm.
	cachedTemplates := make([]serve.Template, len(templates))
	copy(cachedTemplates, templates)
	for i := range cachedTemplates {
		sk, err := core.CacheChain(lib, cachedTemplates[i].Name, charOpts)
		if err != nil {
			log.Fatal(err)
		}
		chain := make([]cache.Key, len(sk))
		for l, s := range sk {
			chain[l] = s.Key
		}
		cachedTemplates[i].Chain = chain
	}
	minCold := float64(mckp.MinTotalTime(cachedTemplates[1].Classes))
	tight := minCold - 10 // unattainable on any machine without the cache
	mkEngine := func(tpls []serve.Template) *serve.Engine {
		f, err := cloud.ParseFleetSpec(catalog, "gp.1x=1,gp.8x=1,mem.1x=1,mem.8x=1")
		if err != nil {
			log.Fatal(err)
		}
		e, err := serve.New(serve.Config{
			Fleet: f,
			Tenants: []serve.Tenant{
				{Name: "acme", Weight: 3},
				{Name: "blue", Weight: 1},
			},
			Templates: tpls,
		})
		if err != nil {
			log.Fatal(err)
		}
		return e
	}
	submit := func(e *serve.Engine, tenant, name string, arrival, deadline float64) serve.JobStatus {
		st, err := e.Submit(serve.SubmitRequest{
			Tenant: tenant, Template: cachedTemplates[1].Name, Name: name,
			ArrivalSec: arrival, DeadlineSec: deadline,
		})
		if err != nil {
			log.Fatal(err)
		}
		return st
	}
	design := cachedTemplates[1].Name
	fmt.Printf("\nFleet-wide artifact dedup: acme and blue both run %s (fastest cold chain %.0fs)\n\n", design, minCold)

	blind := mkEngine(templates)
	submit(blind, "acme", "acme-0", 0, 0)
	st := submit(blind, "blue", "blue-0", 1, 1+tight)
	fmt.Printf("  cache-blind engine: blue's %.0fs deadline -> %s (%s)\n", tight, st.Status, st.Reason)

	warm := mkEngine(cachedTemplates)
	submit(warm, "acme", "acme-0", 0, 0)
	st = submit(warm, "blue", "blue-0", 1, 1+tight)
	fmt.Printf("  chain-carrying engine: blue's %.0fs deadline -> %s\n\n", tight, st.Status)
	if st.Status == serve.StatusAdmitted {
		fmt.Printf("  %-12s %-10s %9s %9s %10s\n", "blue-0 stage", "instance", "start", "busy", "cost ($)")
		for l, ps := range st.Stages {
			inst := ps.Type
			if ps.Cached {
				inst = "(cache)"
			}
			fmt.Printf("  %-12s %-10s %8.0fs %8.0fs %10.4f\n",
				cachedTemplates[1].Kinds[l], inst, ps.StartSec, ps.EndSec-ps.StartSec, ps.CostUSD)
		}
	}
	warm.Drain()
	wrep := warm.Report()
	fmt.Printf("\n  warm trace: %d cache hits, total bill $%.4f, %d promises missed\n",
		wrep.CacheHits, wrep.TotalCostUSD, wrep.MissedPromises)
	fmt.Println("\nThe chain keys are content-addressed, so the dedup needs no coordination")
	fmt.Println("between tenants: whoever computes a prefix first owns it, and every later")
	fmt.Println("submission of the same work is planned around the artifacts it left behind.")

	// Part six: a tenant's quota spent on exploration. Instead of one
	// fixed flow, acme runs a small DSE search over recipes, clock
	// periods and deadline slack on its bounded fleet slice. The cheap
	// rung is GCN-pruned; survivors are scored by the real engines via
	// the batch co-optimizer. Run twice — cache-blind and through a
	// shared artifact store — the search is trial-for-trial identical,
	// but the warm store dedups shared synthesis prefixes and shrinks
	// the bill.
	ds, err := core.BuildDataset(lib, core.DatasetOptions{
		Benchmarks: []string{"adder", "bar", "dec"},
		Recipes:    synth.StandardRecipes[:1],
		Scale:      0.05,
	})
	if err != nil {
		log.Fatal(err)
	}
	pred, _, err := core.TrainPredictor(ds, gcn.Config{
		Hidden1: 8, Hidden2: 6, FCHidden: 6, LR: 3e-3, Epochs: 5,
	}, 0.34, 7)
	if err != nil {
		log.Fatal(err)
	}
	tenantFleet, err := cloud.ParseFleetSpec(catalog, "gp.1x=1,gp.2x=1,mem.1x=1,mem.2x=1")
	if err != nil {
		log.Fatal(err)
	}
	explore := func(store *cache.Store) *dse.Result {
		res, err := dse.Explore(dse.Config{
			Design:     "dyn_node",
			Scale:      0.02,
			MaxPasses:  3,
			Population: 6,
			Eta:        3,
			Rounds:     2,
			Seed:       7,
			Fleet:      tenantFleet,
			Catalog:    catalog,
			Lib:        lib,
			Predictor:  pred,
			Store:      store,
		})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	fmt.Println("\nDSE as a tenant workload: acme explores dyn_node on gp.1x,gp.2x,mem.1x,mem.2x")
	cold := explore(nil)
	warmStore := cache.New(0)
	warmRes := explore(warmStore)
	fmt.Printf("\n  %-22s %10s %10s %12s\n", "exploration", "trials", "full evals", "spend ($)")
	fmt.Printf("  %-22s %10d %10d %12.4f\n", "cache-blind", cold.Sampled, cold.Evaluated, cold.SpentUSD)
	fmt.Printf("  %-22s %10d %10d %12.4f\n", "shared artifact store", warmRes.Sampled, warmRes.Evaluated, warmRes.SpentUSD)
	fmt.Printf("\n  store served %d hits / %d misses (%.1f%% hit rate)\n",
		warmRes.CacheStats.Hits, warmRes.CacheStats.Misses, 100*warmRes.CacheStats.HitRate())
	fmt.Println("\n  Pareto front over (QoR, cost, runtime) — identical either way:")
	fmt.Printf("  %-12s %9s %6s %9s %10s %10s\n", "recipe", "clock_ns", "slack", "qor", "cost ($)", "runtime")
	for _, tr := range warmRes.Front {
		fmt.Printf("  %-12s %9.2f %6.2f %9.1f %10.4f %9.0fs\n",
			tr.Recipe.Name, tr.ClockPeriodNs, tr.SlackFactor,
			tr.Full.QoR, tr.Full.CostUSD, tr.Full.RuntimeSec)
	}
	fmt.Println("\nObjectives never depend on the store — caching only changes what the trials")
	fmt.Println("cost to run, so a budgeted exploration routed through the fleet's artifact")
	fmt.Println("store completes at least as many trials as one that recomputes every prefix.")
}
