package core

import (
	"fmt"

	"edacloud/internal/cache"
	"edacloud/internal/designs"
	"edacloud/internal/flow"
	"edacloud/internal/synth"
	"edacloud/internal/techlib"
)

// This file makes the deployment optimizer cache-aware. A predicted
// artifact-cache hit collapses a stage's planned runtime and cost to
// the cache-probe constant, which changes the per-job DP's picks, the
// batch co-optimizer's shadow prices, and the forecast the plan is
// validated against. Prediction and execution share one decision
// procedure — the chain keys a planning pipeline computes are the keys
// the executing pipelines look up, and cache.Store.PredictChains is
// the scheduler's serial accounting replay run read-only — so a
// forecast under predicted hits matches the cached execution exactly.

// planningPipeline builds the pipeline whose stage key chain matches
// what ExecuteBatchPlan's scheduler jobs will run: the default
// four-stage flow under the given recipe and clock period. Stage keys
// do not depend on instrumentation or worker bounds, so it needs no
// probe.
func planningPipeline(recipe synth.Recipe, clockPeriodNs float64) *flow.Pipeline {
	return flow.NewPipeline(flow.WithRecipe(recipe), flow.WithClockPeriodNs(clockPeriodNs))
}

// CacheChain computes the stage key chain of one design's planned flow
// — the identity the artifact cache stores its artifacts under. opts
// must carry the same Scale/Recipe the execution will run with.
func CacheChain(lib *techlib.Library, design string, opts CharacterizeOptions) ([]flow.StageKey, error) {
	opts = opts.withDefaults()
	g, err := designs.EvalDesign(design, opts.Scale)
	if err != nil {
		return nil, err
	}
	return planningPipeline(opts.Recipe, 0).CacheKeys(g, lib), nil
}

// PredictCacheHits fills each spec's CacheHits with the stages the
// store will serve as hits when the batch executes, in class order (the
// planning pipeline runs its stages in JobKinds order): entries already in
// the store, plus within-batch dedup — a stage an earlier job of the
// same batch computes is a billed hit for every later job sharing the
// chain prefix. The store is not touched. opts must carry the same
// Scale/Recipe the execution (ExecuteBatchPlan) will run with.
func PredictCacheHits(store *cache.Store, lib *techlib.Library, specs []BatchJobSpec, opts CharacterizeOptions) error {
	if store == nil {
		return nil
	}
	opts = opts.withDefaults()
	chains := make([][]cache.Key, len(specs))
	// Specs carrying their own Recipe/ClockPeriodNs (a DSE trial batch
	// mixes recipes) key their own flow; the memo must therefore be
	// keyed by the full flow identity, not the design alone.
	type flowID struct {
		design, recipe string
		clockNs        float64
	}
	memo := map[flowID][]cache.Key{}
	for i, spec := range specs {
		recipe := spec.effectiveRecipe(opts)
		id := flowID{design: spec.Char.Design, recipe: fmt.Sprintf("%s|%v", recipe.Name, recipe.Passes), clockNs: spec.ClockPeriodNs}
		chain, ok := memo[id]
		if !ok {
			g, err := designs.EvalDesign(spec.Char.Design, opts.Scale)
			if err != nil {
				return err
			}
			for _, s := range planningPipeline(recipe, spec.ClockPeriodNs).CacheKeys(g, lib) {
				chain = append(chain, s.Key)
			}
			memo[id] = chain
		}
		chains[i] = chain
	}
	for i, hits := range store.PredictChains(chains) {
		specs[i].CacheHits = hits
	}
	return nil
}

// CacheAdjusted returns a copy of the problem whose hit stages are
// collapsed to the cache-probe constant: every choice of a hit class
// runs for cache.ProbeSeconds at zero cost and is marked Cached (so
// plans, forecasts and adaptive choice tables all price the hit
// identically). A nil/empty hit vector returns the problem unchanged.
func (prob *DeploymentProblem) CacheAdjusted(hits []bool) *DeploymentProblem {
	stages := make([][]StageChoice, len(prob.Stages))
	any := false
	for l, stage := range prob.Stages {
		if l >= len(hits) || !hits[l] {
			stages[l] = stage
			continue
		}
		any = true
		stages[l] = make([]StageChoice, len(stage))
		for j, c := range stage {
			stages[l][j] = StageChoice{Job: c.Job, Instance: c.Instance,
				Seconds: cache.ProbeSeconds, Cost: 0, Cached: true}
		}
	}
	if !any {
		return prob
	}
	return newProblem(prob.Design, stages)
}
