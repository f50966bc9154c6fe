package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"edacloud/internal/cache"
	"edacloud/internal/cloud"
	"edacloud/internal/designs"
	"edacloud/internal/flow"
	"edacloud/internal/mckp"
	"edacloud/internal/synth"
)

// prewarmStore builds a fresh artifact store holding each design's
// synthesis artifact — the shared-prefix state an earlier exploration
// leaves behind — by running one synthesis-only job per design through
// a cached scheduler batch. Rebuilt identically per execution so every
// worker count starts from the same store bytes.
func prewarmStore(t *testing.T, designNames []string) *cache.Store {
	t.Helper()
	opts := charOpts.withDefaults()
	jobs := make([]flow.Job, len(designNames))
	for i, d := range designNames {
		jobs[i] = flow.Job{
			Name:    d,
			Design:  designs.MustEvalDesign(d, opts.Scale),
			Lib:     lib,
			Options: []flow.Option{flow.WithStages(flow.Synthesis(synth.Options{Recipe: opts.Recipe}))},
		}
	}
	store := cache.New(0)
	sched, err := (&flow.Scheduler{Cache: store}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range sched.Jobs {
		if j.Err != nil {
			t.Fatalf("pre-warm job %s: %v", j.Name, j.Err)
		}
	}
	return store
}

// sameSpotSchedule compares two executions of the same plan the way
// the flow package's bit-identity checks do: aggregates, every per-job
// accounting field, every stage attempt, and the artifact content
// hashes. (The raw RunContext also carries probe instrumentation whose
// internals legitimately reflect the host worker pool, so a bare
// DeepEqual over schedules is not the contract.)
func sameSpotSchedule(t *testing.T, seed int64, workers int, got, want *flow.Schedule) {
	t.Helper()
	if got.TotalCostUSD != want.TotalCostUSD || got.MakespanSec != want.MakespanSec ||
		got.CacheHits != want.CacheHits || got.Revocations != want.Revocations ||
		got.RetriedSec != want.RetriedSec || got.DeadlinesMissed != want.DeadlinesMissed {
		t.Fatalf("seed %d workers=%d: aggregates diverged from workers=1:\ngot  %+v\nwant %+v",
			seed, workers, got, want)
	}
	for i := range want.Jobs {
		g, w := got.Jobs[i], want.Jobs[i]
		if g.Name != w.Name || g.StartSec != w.StartSec || g.FinishSec != w.FinishSec ||
			g.WaitSec != w.WaitSec || g.Seconds != w.Seconds || g.CostUSD != w.CostUSD ||
			g.Revocations != w.Revocations || g.RetriedSec != w.RetriedSec {
			t.Fatalf("seed %d workers=%d: job %s diverged:\ngot  %+v\nwant %+v",
				seed, workers, w.Name, g, w)
		}
		if len(g.Stages) != len(w.Stages) {
			t.Fatalf("seed %d workers=%d: job %s placed %d stage attempts, want %d",
				seed, workers, w.Name, len(g.Stages), len(w.Stages))
		}
		for s := range w.Stages {
			if g.Stages[s] != w.Stages[s] {
				t.Fatalf("seed %d workers=%d: job %s stage %d diverged:\ngot  %+v\nwant %+v",
					seed, workers, w.Name, s, g.Stages[s], w.Stages[s])
			}
		}
		if g.Run.NetlistHash() != w.Run.NetlistHash() || g.Run.TimingHash() != w.Run.TimingHash() {
			t.Fatalf("seed %d workers=%d: job %s artifacts diverged", seed, workers, w.Name)
		}
	}
}

// TestCacheSpotProperty closes the untested cache x spot interaction
// with a 50-seed sweep. Per seed: a warm store, a spot fleet with a
// seeded revocation model, and a risk-adjusted cache-aware batch.
// Three invariants:
//
//  1. The executed schedule is bit-identical at workers 1, 2 and 8 —
//     revocations, retries and cache hits included.
//  2. No stage is ever both Cached and Revoked: a stage served from
//     the store books no lease, so there is nothing to revoke.
//  3. The risk-adjusted cache-aware plan never bills more than the
//     risk-adjusted cache-blind plan over the same store (the
//     capacity-ample itemwise argument, now with hazard-inflated
//     costs: cache adjustment runs after risk adjustment, so a hit
//     class is cheaper on both axes either way).
func TestCacheSpotProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep")
	}
	catalog := spotCatalog(t)
	mix := []string{"dyn_node", "aes"}
	chars := map[string]*DesignCharacterization{}
	for _, d := range mix {
		chars[d] = characterized(t, d)
	}
	hazards := cloud.UniformSpotHazards(catalog, 240)
	retry := flow.RetryPolicy{MaxAttempts: 50, BackoffSec: 15}
	// Capacity-ample on-demand + spot pool for the plan comparison
	// (invariant 3): no contention means the joint solve decomposes and
	// aware <= blind holds itemwise.
	ample, err := cloud.ParseFleetSpec(catalog,
		"gp.1x=6,gp.2x=6,gp.4x=6,gp.8x=6,mem.1x=6,mem.2x=6,mem.4x=6,mem.8x=6,"+
			"gp.1x.spot=6,gp.2x.spot=6,gp.4x.spot=6,gp.8x.spot=6,"+
			"mem.1x.spot=6,mem.2x.spot=6,mem.4x.spot=6,mem.8x.spot=6")
	if err != nil {
		t.Fatal(err)
	}

	totalRevocations, totalHits, strictly := 0, 0, 0
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(2)
		specs := make([]BatchJobSpec, n)
		for i := range specs {
			d := mix[rng.Intn(len(mix))]
			prob, err := BuildDeploymentProblem(chars[d], catalog)
			if err != nil {
				t.Fatal(err)
			}
			specs[i] = BatchJobSpec{Name: fmt.Sprintf("s%d-j%d-%s", seed, i, d), Char: chars[d], Prob: prob}
		}
		store := prewarmStore(t, mix)
		if err := PredictCacheHits(store, lib, specs, charOpts); err != nil {
			t.Fatal(err)
		}

		// Invariant 3: risk-adjusted aware vs blind plans on the ample
		// fleet, priced over the same predicted hits. Deadlines are
		// loose-but-binding (the TestCacheAwarePlansNeverCostMore
		// calibration): tight enough that the blind plan must buy speed
		// for stages the store actually serves.
		planSpecs := make([]BatchJobSpec, n)
		copy(planSpecs, specs)
		for i := range planSpecs {
			if rng.Intn(2) == 0 {
				minT := mckp.MinTotalTime(planSpecs[i].Prob.Classes)
				planSpecs[i].DeadlineSec = minT + minT/2 + rng.Intn(minT+1)
			}
		}
		blindSpecs := make([]BatchJobSpec, n)
		copy(blindSpecs, planSpecs)
		for i := range blindSpecs {
			blindSpecs[i].CacheHits = nil
		}
		riskOpts := BatchOptions{Hazards: mckp.Hazards(hazards), Retry: retry}
		awareOpts := riskOpts
		awareOpts.Cache = store
		aware, err := OptimizeBatchOpts(planSpecs, ample, awareOpts)
		if err != nil {
			t.Fatal(err)
		}
		blind, err := OptimizeBatchOpts(blindSpecs, ample, riskOpts)
		if err != nil {
			t.Fatal(err)
		}
		if blind.Feasible {
			if !aware.Feasible {
				t.Fatalf("seed %d: cache-blind batch feasible but cache-aware not", seed)
			}
			ca, cb := planCostUnderHits(aware, planSpecs), planCostUnderHits(blind, planSpecs)
			if ca > cb+1e-9 {
				t.Fatalf("seed %d: risk-adjusted warm plan bills $%.6f, cold plan $%.6f", seed, ca, cb)
			}
			if ca < cb-1e-9 {
				strictly++
			}
		} else if aware.Feasible {
			// The warm plan meets deadlines the cold plan cannot — a
			// strict cache dividend too.
			strictly++
		}

		// Invariants 1 and 2: execute the warm risk-adjusted plan on a
		// contended spot fleet under seeded revocations, at three worker
		// counts, each from identical store bytes and the same timelines.
		spotFleet, err := cloud.ParseFleetSpec(catalog, "gp.2x.spot=1,mem.2x.spot=1")
		if err != nil {
			t.Fatal(err)
		}
		execOpts := awareOpts
		bp, err := OptimizeBatchOpts(specs, spotFleet, execOpts)
		if err != nil {
			t.Fatal(err)
		}
		if !bp.Feasible {
			t.Fatalf("seed %d: deadline-free spot batch infeasible", seed)
		}
		var base *flow.Schedule
		for _, workers := range []int{1, 2, 8} {
			bp.Options.Cache = prewarmStore(t, mix)
			f := spotFleet.Clone()
			f.Revocation = cloud.NewRevocationModel(seed, hazards)
			sched, err := ExecuteBatchPlan(lib, specs, bp,
				CharacterizeOptions{Scale: charOpts.Scale, Workers: workers}, f, false)
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range sched.Jobs {
				if j.Err != nil {
					t.Fatalf("seed %d: job %s: %v", seed, j.Name, j.Err)
				}
				for _, st := range j.Stages {
					if st.Cached && st.Revoked {
						t.Fatalf("seed %d: job %s stage %s both cached and revoked: %+v",
							seed, j.Name, st.Kind, st)
					}
				}
			}
			if base == nil {
				base = sched
				totalRevocations += sched.Revocations
				totalHits += sched.CacheHits
				continue
			}
			sameSpotSchedule(t, seed, workers, sched, base)
		}
		if base.CacheHits == 0 {
			t.Fatalf("seed %d: warm store served no hits", seed)
		}
	}
	if totalRevocations == 0 {
		t.Fatal("no revocations across 50 seeds; hazard rate needs retuning")
	}
	if strictly == 0 {
		t.Fatal("risk-adjusted warm plans never strictly beat cold plans across 50 seeds")
	}
	t.Logf("50 seeds: %d revocations, %d cache hits, warm strictly cheaper on %d", totalRevocations, totalHits, strictly)
}
