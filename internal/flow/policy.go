package flow

import (
	"fmt"

	"edacloud/internal/cloud"
)

// StagePlan maps each flow stage to the instance type it should run
// on — an executable form of the deployment optimizer's per-stage
// machine selection (core.Plan exports one).
type StagePlan map[JobKind]cloud.InstanceType

// Policy decides, per job and stage, which fleet instance type a stage
// queues for. Choices are a pure function of the job and stage — never
// of fleet congestion — so the expensive pipeline runs can fan out
// across real cores while the placement simulation stays a serial,
// deterministic event loop.
type Policy interface {
	// Name labels the policy in schedules and ledgers.
	Name() string
	// Choose returns the instance type stage k of the job queues for.
	// A zero type (empty Name) queues for any fleet instance.
	Choose(job *Job, k JobKind) (cloud.InstanceType, error)
	// ReInstance reports whether the job releases its machine between
	// stages (stage-level placement, the paper's per-stage machine
	// selection) instead of holding one lease across the whole flow.
	ReInstance() bool
}

// SingleInstance is the compatibility policy: every stage of a job
// runs on the job's own Instance, held under one lease for the whole
// flow — exactly the pre-fleet Scheduler behavior.
type SingleInstance struct{}

// Name implements Policy.
func (SingleInstance) Name() string { return "single-instance" }

// Choose implements Policy: always the job's Instance.
func (SingleInstance) Choose(job *Job, k JobKind) (cloud.InstanceType, error) {
	return job.Instance, nil
}

// ReInstance implements Policy: the job keeps its machine.
func (SingleInstance) ReInstance() bool { return false }

// PlanPolicy executes each job's StagePlan: stage k queues for the
// plan's knapsack-chosen instance type and the job re-instances between
// stages, which is what lets the MCKP optimizer's per-stage predictions
// be validated against simulated runtimes in-repo. A job with no choice
// table (Job.Choices) or no deadline runs its plan verbatim. One that
// carries both is re-planned at placement time: when the queue wait for
// a planned type has eaten the job's deadline slack, the current and
// remaining stages are re-picked together from the table — the cheapest
// combination that still projects to meet the deadline, the paper's
// selection restricted to what is left of the job (replanRequest). The
// re-plan reads only the serial placement simulation's fleet state, so
// schedules stay bit-identical at any worker count.
type PlanPolicy struct{}

// Name implements Policy.
func (PlanPolicy) Name() string { return "plan" }

// Choose implements Policy: the job's plan entry for the stage.
func (PlanPolicy) Choose(job *Job, k JobKind) (cloud.InstanceType, error) {
	it, ok := job.Plan[k]
	if !ok {
		return cloud.InstanceType{}, fmt.Errorf("flow: job %q has no plan entry for stage %s", job.Name, k)
	}
	return it, nil
}

// ReInstance implements Policy: one lease per stage.
func (PlanPolicy) ReInstance() bool { return true }

// StageOption is one candidate configuration for a stage: the
// instance type with its predicted runtime and bill — one cell of the
// deployment optimizer's choice table in executable form.
type StageOption struct {
	Type    cloud.InstanceType
	Seconds float64
	CostUSD float64
}

// StageChoices maps each stage to its candidate options, in the
// optimizer's table order (smallest instance first). A plan-executing
// job with a deadline is re-planned from it at placement time; under
// every policy the placement engine uses it to price stages placed on
// a type other than the one their probe was sized for.
type StageChoices map[JobKind][]StageOption

// Option returns stage k's entry for the named instance type.
func (c StageChoices) Option(k JobKind, typeName string) (StageOption, bool) {
	for _, opt := range c[k] {
		if opt.Type.Name == typeName {
			return opt, true
		}
	}
	return StageOption{}, false
}

// FirstFit is the greedy baseline: every stage queues for whichever
// fleet instance becomes free earliest, whatever its type, and the job
// re-instances between stages. It exploits the whole fleet but ignores
// per-stage machine fit — the bar the plan policy is measured against.
type FirstFit struct{}

// Name implements Policy.
func (FirstFit) Name() string { return "first-fit" }

// Choose implements Policy: the zero type, i.e. any instance.
func (FirstFit) Choose(job *Job, k JobKind) (cloud.InstanceType, error) {
	return cloud.InstanceType{}, nil
}

// ReInstance implements Policy: one lease per stage.
func (FirstFit) ReInstance() bool { return true }
