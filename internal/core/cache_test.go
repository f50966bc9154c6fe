package core

import (
	"fmt"
	"math/rand"
	"testing"

	"edacloud/internal/cache"
	"edacloud/internal/cloud"
	"edacloud/internal/mckp"
)

// TestPredictCacheHitsWithinBatchDedup: against an empty store, the
// first job of a design predicts all misses and every later job of the
// same design predicts all hits — the pending-prefix half of the
// prediction contract.
func TestPredictCacheHitsWithinBatchDedup(t *testing.T) {
	specs := contendedBatchSpecs(t, []string{"aes", "aes", "dyn_node"}, nil)
	store := cache.New(0)
	if err := PredictCacheHits(store, lib, specs, charOpts); err != nil {
		t.Fatal(err)
	}
	for k, hit := range specs[0].CacheHits {
		if hit {
			t.Fatalf("first aes predicted a hit on %s against an empty store", k)
		}
	}
	for _, k := range JobKinds() {
		if !specs[1].CacheHits[k] {
			t.Fatalf("second aes did not predict a hit on %s", k)
		}
		if specs[2].CacheHits[k] {
			t.Fatalf("dyn_node predicted a hit on %s with no shared prefix", k)
		}
	}
}

// TestCacheAwareForecastMatchesExecution is the acceptance contract:
// a batch planned under predicted hits and executed with the same
// store must match its forecast exactly — per-job starts, finishes,
// waits, busy time, bills and per-stage cached flags — and the
// predicted hits must be the hits the scheduler actually bills.
func TestCacheAwareForecastMatchesExecution(t *testing.T) {
	specs := contendedBatchSpecs(t, []string{"aes", "aes", "dyn_node"}, nil)
	fleet, err := cloud.ParseFleetSpec(cloud.DefaultCatalog(), "gp.2x=1,mem.2x=1")
	if err != nil {
		t.Fatal(err)
	}
	store := cache.New(0)
	if err := PredictCacheHits(store, lib, specs, charOpts); err != nil {
		t.Fatal(err)
	}
	bp, err := OptimizeBatchOpts(specs, fleet, BatchOptions{Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	if !bp.Feasible {
		t.Fatal("deadline-free batch infeasible")
	}

	sched, err := ExecuteBatchPlan(lib, specs, bp, charOpts, fleet.Clone(), false)
	if err != nil {
		t.Fatal(err)
	}
	if sched.CacheHits == 0 {
		t.Fatal("execution billed no cache hits on a duplicated design")
	}
	if sched.CacheHits != bp.Forecast.CacheHits {
		t.Fatalf("execution billed %d hits, forecast predicted %d", sched.CacheHits, bp.Forecast.CacheHits)
	}
	for i, j := range sched.Jobs {
		if j.Err != nil {
			t.Fatalf("job %s: %v", j.Name, j.Err)
		}
		f := bp.Forecast.Jobs[i]
		if j.StartSec != f.StartSec || j.FinishSec != f.FinishSec ||
			j.WaitSec != f.WaitSec || j.Seconds != f.Seconds || j.CostUSD != f.CostUSD {
			t.Fatalf("job %s simulated %g/%g/%g/%g/%g, forecast %g/%g/%g/%g/%g",
				j.Name, j.StartSec, j.FinishSec, j.WaitSec, j.Seconds, j.CostUSD,
				f.StartSec, f.FinishSec, f.WaitSec, f.Seconds, f.CostUSD)
		}
		if len(j.Stages) != len(f.Stages) {
			t.Fatalf("job %s: %d stages executed, %d forecast", j.Name, len(j.Stages), len(f.Stages))
		}
		for s := range j.Stages {
			if j.Stages[s].Cached != f.Stages[s].Cached ||
				j.Stages[s].StartSec != f.Stages[s].StartSec ||
				j.Stages[s].Seconds != f.Stages[s].Seconds {
				t.Fatalf("job %s stage %d: executed %+v, forecast %+v",
					j.Name, s, j.Stages[s], f.Stages[s])
			}
			if hit := specs[i].CacheHits[j.Stages[s].Kind]; hit != j.Stages[s].Cached {
				t.Fatalf("job %s stage %s: predicted hit=%v, billed hit=%v",
					j.Name, j.Stages[s].Kind, hit, j.Stages[s].Cached)
			}
		}
	}
}

// planCostUnderHits prices a plan's bill given the predicted hits: a
// hit stage is served from the store for free, everything else bills
// its pick. This is the common yardstick for comparing a cache-aware
// plan against a cache-blind one — both executed over the same store.
func planCostUnderHits(bp *BatchPlan, specs []BatchJobSpec) float64 {
	var total float64
	for i, plan := range bp.Plans {
		for _, pick := range plan.Picks {
			if specs[i].CacheHits[pick.Job] {
				continue
			}
			total += pick.Cost
		}
	}
	return total
}

// TestCacheAwarePlansNeverCostMore sweeps 50 seeded shared-prefix
// workloads: on each, the batch solved under predicted hits must cost
// no more (under the shared store both would execute against) than
// the cache-blind batch, and must be strictly cheaper somewhere.
func TestCacheAwarePlansNeverCostMore(t *testing.T) {
	mix := []string{"aes", "dyn_node", "ibex"}
	chars := map[string]*DesignCharacterization{}
	catalog := cloud.DefaultCatalog()
	for _, d := range mix {
		chars[d] = characterized(t, d)
	}
	// Capacity-ample on purpose: with no contention the joint solve
	// reduces to per-job DPs, where cache adjustment dominates itemwise
	// (a hit class only ever gets cheaper and faster), so aware <= blind
	// is a theorem rather than a heuristic outcome.
	fleet, err := cloud.ParseFleetSpec(catalog,
		"gp.1x=6,gp.2x=6,gp.4x=6,gp.8x=6,mem.1x=6,mem.2x=6,mem.4x=6,mem.8x=6,cpu.1x=6,cpu.2x=6,cpu.4x=6,cpu.8x=6")
	if err != nil {
		t.Fatal(err)
	}

	feasible, strictly := 0, 0
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(3)
		specs := make([]BatchJobSpec, n)
		for i := range specs {
			d := mix[rng.Intn(len(mix))]
			char := chars[d]
			prob, err := BuildDeploymentProblem(char, catalog)
			if err != nil {
				t.Fatal(err)
			}
			specs[i] = BatchJobSpec{Name: fmt.Sprintf("s%d-j%d-%s", seed, i, d), Char: char, Prob: prob}
			if rng.Intn(2) == 0 {
				// A loose-but-binding deadline, calibrated to the job's own
				// fastest cold time: tight enough that the blind plan must
				// buy speed, loose enough to stay feasible solo.
				minT := mckp.MinTotalTime(prob.Classes)
				specs[i].DeadlineSec = minT + minT/2 + rng.Intn(minT+1)
			}
		}
		// Pre-warm the store with a synthesis-only run per design — the
		// shared-prefix workload: an earlier exploration synthesized these
		// designs, so every batch job hits on synthesis but must still
		// place, route and analyze. This is what makes hits partial and
		// the aware-vs-blind comparison non-trivial.
		store := prewarmStore(t, mix)
		if err := PredictCacheHits(store, lib, specs, charOpts); err != nil {
			t.Fatal(err)
		}
		blindSpecs := make([]BatchJobSpec, n)
		copy(blindSpecs, specs)
		for i := range blindSpecs {
			blindSpecs[i].CacheHits = nil
		}

		aware, err := OptimizeBatchOpts(specs, fleet, BatchOptions{Cache: store})
		if err != nil {
			t.Fatal(err)
		}
		blind, err := OptimizeBatchOpts(blindSpecs, fleet, BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !blind.Feasible {
			// The blind plan cannot meet the deadlines the aware plan can
			// (cached stages shrink to the probe constant); the aware solve
			// must not be worse.
			if !aware.Feasible {
				continue
			}
			feasible++
			strictly++
			continue
		}
		if !aware.Feasible {
			t.Fatalf("seed %d: cache-blind batch feasible but cache-aware not", seed)
		}
		feasible++
		ca := planCostUnderHits(aware, specs)
		cb := planCostUnderHits(blind, specs)
		if ca > cb+1e-9 {
			t.Fatalf("seed %d: cache-aware plan costs $%.6f, cache-blind $%.6f", seed, ca, cb)
		}
		if ca < cb-1e-9 {
			strictly++
		}
	}
	if feasible < 40 {
		t.Fatalf("only %d of 50 seeds produced a feasible batch", feasible)
	}
	if strictly == 0 {
		t.Fatal("cache-aware planning never beat cache-blind across 50 shared-prefix seeds")
	}
}
