package core

import (
	"fmt"

	"edacloud/internal/cache"
	"edacloud/internal/cloud"
	"edacloud/internal/designs"
	"edacloud/internal/flow"
	"edacloud/internal/mckp"
	"edacloud/internal/synth"
	"edacloud/internal/techlib"
)

// This file drives the batch-level deployment optimizer: N
// characterized flows co-optimized against one bounded cloud.Fleet
// instead of each flow's knapsack solved as if its machines appear on
// demand. mckp.BatchOptimize does the joint selection (shadow prices
// on contended instance types over the per-job DP); this layer
// restricts each job's choice table to the fleet's actual types,
// converts the joint selection back into executable Plans, and — the
// contract the test suite pins — predicts the contended schedule
// exactly by replaying the flow scheduler's placement engine over the
// optimizer's own per-stage runtime predictions (flow.Forecast).

// BatchJobSpec is one job of a batch deployment: a characterized
// design with its deployment problem and completion deadline.
type BatchJobSpec struct {
	// Name labels the job in plans and schedules; it must be unique
	// within the batch (several jobs may share one design).
	Name string
	Char *DesignCharacterization
	Prob *DeploymentProblem
	// DeadlineSec is the job's completion deadline in whole simulated
	// seconds, queueing included; 0 means none.
	DeadlineSec int
	// CacheHits marks, in class order, the stages PredictCacheHits
	// expects the artifact cache to serve when the batch executes (store
	// contents plus within-batch dedup). OptimizeBatchOpts collapses
	// these stages to the cache-probe constant before solving. Nil or
	// all-false is the cache-blind path, bit-identical to no prediction.
	CacheHits []bool
	// Recipe, when non-zero, overrides the batch-level characterization
	// recipe for this job alone — a DSE trial batch mixes recipes within
	// one co-optimized execution. The job's Char must have been profiled
	// under the same recipe for the plan's runtimes to be meaningful.
	Recipe synth.Recipe
	// ClockPeriodNs, when non-zero, sets this job's STA timing
	// constraint (flow.WithClockPeriodNs); 0 keeps the engine default.
	// It participates in the job's cache identity: trials differing only
	// in clock share every stage artifact except timing.
	ClockPeriodNs float64
}

// effectiveRecipe resolves the recipe this spec's flow runs under: the
// spec's own when set, else the batch-level characterization recipe.
// opts must already carry its defaults.
func (s BatchJobSpec) effectiveRecipe(opts CharacterizeOptions) synth.Recipe {
	if s.Recipe.Name != "" || len(s.Recipe.Passes) > 0 {
		return s.Recipe
	}
	return opts.Recipe
}

// BatchOptions shapes a batch optimization for preemptible capacity
// and the artifact cache. The zero value reproduces the fault-oblivious
// behavior exactly.
type BatchOptions struct {
	// Hazards carries per-instance-type revocation rates (events/hour)
	// into the selection: choice tables are risk-priced (mckp.Adjust)
	// before the DP and shadow-price loop run, so deadline-critical
	// stages buy on-demand capacity while slack-rich stages ride the
	// spot discount. Empty means no adjustment; a NaN, infinite or
	// negative rate is refused.
	Hazards mckp.Hazards
	// Retry is the revocation retry policy jobs execute (and forecast)
	// under; its BackoffSec also feeds the risk adjustment.
	Retry flow.RetryPolicy
	// Cache attaches a content-addressed artifact store to the
	// execution: ExecuteBatchPlan hands it to the flow scheduler, so
	// stages whose chain key is present are adopted instead of run and
	// shared prefixes within the batch settle as one compute plus billed
	// probes. Nil runs cache-less.
	Cache *cache.Store
}

// BatchPlan is a co-optimized batch deployment: one executable Plan
// per job plus the contention-aware schedule forecast the plans imply
// on the shared fleet.
type BatchPlan struct {
	Feasible bool
	// Options echoes the BatchOptions the plan was solved under;
	// ExecuteBatchPlan replays them (retry policy, cache) so the
	// forecast and the execution see the same discipline.
	Options BatchOptions
	// Plans holds each job's stage-to-instance selection, aligned with
	// the input specs. Problems holds the fleet-restricted deployment
	// problems the selection was solved over (the choice tables an
	// adaptive execution re-plans from).
	Plans    []*Plan
	Problems []*DeploymentProblem
	// Selection is the mckp-level joint solution, including the integral
	// schedule estimate, shadow prices and winning method.
	Selection mckp.BatchSelection
	// Forecast is the exact contention-aware prediction: the flow
	// scheduler's placement engine replayed over the plans' predicted
	// stage runtimes on a clone of the fleet. Its per-job start, wait
	// and finish times and bills are what a real PlanPolicy execution
	// reproduces.
	Forecast *flow.Schedule
	// TotalCost sums the plans' predicted bills (queueing never changes
	// a per-second bill).
	TotalCost float64
}

// restrictProblem drops choice-table entries whose instance type the
// fleet cannot supply. A stage left with no candidate is a
// configuration error: the fleet cannot run the flow at all.
func restrictProblem(prob *DeploymentProblem, capacity mckp.Capacity) (*DeploymentProblem, error) {
	stages := make([][]StageChoice, len(prob.Stages))
	for l, stage := range prob.Stages {
		for _, c := range stage {
			if _, ok := capacity[c.Instance.Name]; ok {
				stages[l] = append(stages[l], c)
			}
		}
		if len(stages[l]) == 0 {
			return nil, fmt.Errorf("core: fleet has no instance able to run stage %s of %s",
				prob.Classes[l].Name, prob.Design)
		}
	}
	return newProblem(prob.Design, stages), nil
}

// Restrict drops choice-table entries whose instance type the fleet
// cannot supply — the exported form of the batch optimizer's own
// restriction step, so callers pricing plans against a bounded fleet
// (the DSE full-evaluation rung) solve over exactly the choices the
// fleet can execute.
func (prob *DeploymentProblem) Restrict(fleet *cloud.Fleet) (*DeploymentProblem, error) {
	return restrictProblem(prob, batchCapacity(fleet))
}

// StageChoices exports the problem's choice tables in the flow
// scheduler's executable form — the table flow.PlanPolicy re-plans a
// deadlined job from at placement time.
func (prob *DeploymentProblem) StageChoices() flow.StageChoices {
	out := flow.StageChoices{}
	for _, stage := range prob.Stages {
		for _, c := range stage {
			out[c.Job] = append(out[c.Job], flow.StageOption{
				Type:    c.Instance,
				Seconds: c.Seconds,
				CostUSD: c.Cost,
			})
		}
	}
	return out
}

// batchCapacity renders the fleet's capacity profile in mckp currency.
func batchCapacity(fleet *cloud.Fleet) mckp.Capacity {
	capacity := mckp.Capacity{}
	for _, e := range fleet.Profile() {
		capacity[e.Type.Name] = e.Count
	}
	return capacity
}

// forecastFor replays the plans on a clone of the fleet and returns
// the predicted schedule. The clone shares the fleet's revocation
// model (timelines are pure functions of seed and instance ID), and
// the retry policy rides along, so the prediction reacts to
// revocations exactly as the execution will.
func forecastFor(specs []BatchJobSpec, plans []*Plan, fleet *cloud.Fleet, retry flow.RetryPolicy) (*flow.Schedule, error) {
	fjobs := make([]flow.ForecastJob, len(specs))
	for i, spec := range specs {
		fj := flow.ForecastJob{Name: spec.Name, DeadlineSec: float64(spec.DeadlineSec), Retry: retry}
		for _, pick := range plans[i].Picks {
			fj.Stages = append(fj.Stages, flow.ForecastStage{
				Kind:    pick.Job,
				Type:    pick.Instance,
				Seconds: pick.Seconds,
				Cached:  pick.Cached,
			})
		}
		fjobs[i] = fj
	}
	return flow.Forecast(fleet.Clone(), fjobs)
}

// validateBatchSpecs checks the batch input shape shared by the
// optimizers.
func validateBatchSpecs(specs []BatchJobSpec, fleet *cloud.Fleet) error {
	if len(specs) == 0 {
		return fmt.Errorf("core: batch has no jobs")
	}
	if fleet == nil || len(fleet.Instances) == 0 {
		return fmt.Errorf("core: batch needs a non-empty fleet")
	}
	seen := map[string]bool{}
	for i, spec := range specs {
		if spec.Char == nil || spec.Prob == nil {
			return fmt.Errorf("core: batch job %d needs a characterization and a deployment problem", i)
		}
		if spec.Name == "" {
			return fmt.Errorf("core: batch job %d has no name", i)
		}
		if seen[spec.Name] {
			return fmt.Errorf("core: batch job name %q repeats", spec.Name)
		}
		seen[spec.Name] = true
	}
	return nil
}

// OptimizeBatch co-optimizes the batch against the shared fleet: each
// job's choice table restricted to the fleet's types, the joint
// selection solved by mckp.BatchOptimize (shadow prices on contended
// types over the per-job DP, round-robin repair as the fallback
// bound), and the resulting plans forecast exactly on a clone of the
// fleet. The fleet itself is not mutated.
func OptimizeBatch(specs []BatchJobSpec, fleet *cloud.Fleet) (*BatchPlan, error) {
	return OptimizeBatchOpts(specs, fleet, BatchOptions{})
}

// OptimizeBatchOpts is OptimizeBatch with explicit BatchOptions: the
// joint selection solves over risk-adjusted choice tables when hazards
// are given (spot items priced at their expected truncated-attempt
// cost and wall clock), and the forecast replays the options' retry
// policy on the fleet clone. TotalCost is then the expected bill under
// revocations, not the nominal one.
func OptimizeBatchOpts(specs []BatchJobSpec, fleet *cloud.Fleet, opts BatchOptions) (*BatchPlan, error) {
	if err := validateBatchSpecs(specs, fleet); err != nil {
		return nil, err
	}
	if err := opts.Hazards.Validate(); err != nil {
		return nil, err
	}
	capacity := batchCapacity(fleet)
	probs := make([]*DeploymentProblem, len(specs))
	jobs := make([]mckp.BatchJob, len(specs))
	for i, spec := range specs {
		restricted, err := restrictProblem(spec.Prob, capacity)
		if err != nil {
			return nil, err
		}
		probs[i] = restricted.CacheAdjusted(spec.CacheHits)
		classes := mckp.Adjust(restricted.Classes, spec.CacheHits, opts.Hazards, opts.Retry.BackoffSec)
		jobs[i] = mckp.BatchJob{Name: spec.Name, Classes: classes, DeadlineSec: spec.DeadlineSec}
	}
	sel, err := mckp.BatchOptimize(jobs, capacity)
	if err != nil {
		return nil, err
	}
	if !sel.Feasible {
		return &BatchPlan{Feasible: false, Options: opts, Problems: probs, Selection: sel}, nil
	}
	bp := &BatchPlan{Feasible: true, Options: opts, Problems: probs, Selection: sel}
	for i := range specs {
		plan := planFromSelection(probs[i], sel.Jobs[i])
		bp.Plans = append(bp.Plans, plan)
		bp.TotalCost += sel.Jobs[i].TotalCost
	}
	if bp.Forecast, err = forecastFor(specs, bp.Plans, fleet, opts.Retry); err != nil {
		return nil, err
	}
	return bp, nil
}

// IndependentBatchPlan is the baseline OptimizeBatch is measured
// against: every job's plan solved in isolation (the paper's
// per-flow knapsack, restricted to the fleet's types but blind to
// contention), then forecast together on the same shared fleet. Its
// predicted waits and deadline misses are what co-optimization
// removes; its cost lower-bounds any per-job-deadline-feasible batch.
func IndependentBatchPlan(specs []BatchJobSpec, fleet *cloud.Fleet) (*BatchPlan, error) {
	if err := validateBatchSpecs(specs, fleet); err != nil {
		return nil, err
	}
	capacity := batchCapacity(fleet)
	bp := &BatchPlan{Feasible: true}
	for _, spec := range specs {
		restricted, err := restrictProblem(spec.Prob, capacity)
		if err != nil {
			return nil, err
		}
		bp.Problems = append(bp.Problems, restricted)
		deadline := spec.DeadlineSec
		if deadline <= 0 {
			deadline = restricted.UnderProvision().TotalTime
		}
		plan, err := restricted.Optimize(deadline)
		if err != nil {
			return nil, err
		}
		if !plan.Feasible {
			bp.Feasible = false
			bp.Plans = append(bp.Plans, plan)
			continue
		}
		bp.Plans = append(bp.Plans, plan)
		bp.TotalCost += plan.TotalCost
	}
	if !bp.Feasible {
		return bp, nil
	}
	var err error
	if bp.Forecast, err = forecastFor(specs, bp.Plans, fleet, flow.RetryPolicy{}); err != nil {
		return nil, err
	}
	return bp, nil
}

// ExecuteBatchPlan replays a batch plan on the fleet scheduler: every
// job's flow regenerated at the characterization's scale, each stage
// placed on its plan-chosen instance type under flow.PlanPolicy. With
// adaptive true the jobs carry their choice tables, so the scheduler
// re-plans a job's remaining stages when queueing eats its slack;
// without them the plan runs verbatim and the schedule must match the
// plan's Forecast exactly. opts must carry the same Scale/Recipe the
// characterizations ran with. The given fleet is mutated with the
// run's leases; Reset or Clone it between runs.
func ExecuteBatchPlan(lib *techlib.Library, specs []BatchJobSpec, bp *BatchPlan, opts CharacterizeOptions, fleet *cloud.Fleet, adaptive bool) (*flow.Schedule, error) {
	if err := validateBatchSpecs(specs, fleet); err != nil {
		return nil, err
	}
	if bp == nil || !bp.Feasible {
		return nil, fmt.Errorf("core: infeasible batch plan cannot execute")
	}
	if len(bp.Plans) != len(specs) {
		return nil, fmt.Errorf("core: batch plan holds %d jobs, specs are %d", len(bp.Plans), len(specs))
	}
	opts = opts.withDefaults()
	jobs := make([]flow.Job, len(specs))
	for i, spec := range specs {
		sp, err := bp.Plans[i].StagePlan()
		if err != nil {
			return nil, fmt.Errorf("core: job %q: %w", spec.Name, err)
		}
		g, err := designs.EvalDesign(spec.Char.Design, opts.Scale)
		if err != nil {
			return nil, err
		}
		jobs[i] = flow.Job{
			Name:   spec.Name,
			Design: g,
			Lib:    lib,
			Options: []flow.Option{
				flow.WithRecipe(spec.effectiveRecipe(opts)),
				flow.WithClockPeriodNs(spec.ClockPeriodNs),
			},
			Plan:        sp,
			DeadlineSec: float64(spec.DeadlineSec),
			WorkScale:   spec.Char.WorkScale,
			Retry:       bp.Options.Retry,
		}
		if adaptive {
			jobs[i].Choices = bp.Problems[i].StageChoices()
		}
	}
	sched := &flow.Scheduler{Workers: opts.Workers, Fleet: fleet, Policy: flow.PlanPolicy{}, Cache: bp.Options.Cache}
	return sched.Run(nil, jobs)
}
