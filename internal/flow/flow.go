// Package flow is the composable flow API of the reproduction: it
// turns the paper's four EDA applications — synthesis, placement,
// routing and static timing analysis — into schedulable, recombinable
// stages, which is the seam the paper's whole workflow (its Fig. 1)
// rests on: an EDA flow is a unit of work to be characterized, priced
// and placed onto cloud VMs.
//
// # Stages and pipelines
//
// A Stage wraps one engine behind a uniform interface: Name, the
// JobKind it implements, and Run against a RunContext. The RunContext
// is the typed artifact store a flow threads through its stages — the
// optimized AIG, mapped netlist, placement, routing and timing results,
// plus one perf.Report per stage — together with the design, the cell
// library, a context.Context honored at stage boundaries, and the
// per-stage execution configuration (StageConfig: worker-pool bound and
// performance probe).
//
// A Pipeline is a sequence of stages built with functional options:
//
//	p := flow.NewPipeline(
//		flow.WithRecipe(recipe),
//		flow.WithWorkers(8),
//		flow.WithNewProbe(probeFor),
//	)
//	rc, err := p.Run(design, lib)
//
// Partial flows and custom stages pass an explicit stage list —
// synthesis-only for dataset generation, for example:
//
//	p := flow.NewPipeline(flow.WithStages(flow.Synthesis(synth.Options{})))
//
// WithEvents streams progress (stage started/finished) to a callback
// as the pipeline runs.
//
// # Scheduling flows onto a cloud fleet
//
// Scheduler runs a batch of flow jobs over a bounded cloud.Fleet —
// the paper's batch-deployment economics, where many jobs contend for
// a finite pool of VMs and stages (not whole jobs) are the unit of
// placement. The real compute (each job's pipeline) fans out across
// host cores via internal/par; placement then happens in a serial
// event-driven simulation in which jobs queue for instances, so
// simulated start times, waits, bills and deadline outcomes are
// deterministic for any worker count.
//
// A Policy decides which instance type each stage queues for:
// SingleInstance reproduces the historical one-job-one-VM schedule
// (the default, with a dedicated per-job fleet when Scheduler.Fleet is
// nil), PlanPolicy executes a deployment optimizer's per-stage machine
// selection (each job's StagePlan, re-instancing between stages, and
// re-planning the remaining stages of a job that carries a choice
// table once queue wait has eaten its deadline slack), and FirstFit is
// the greedy any-machine baseline. Simulated stage
// runtimes come from replaying the flow's perf.Reports through the
// granted instance's machine model; bills come from the fleet's lease
// ledger under per-second pricing with optional minimum billing
// granularity.
package flow

import (
	"fmt"

	"edacloud/internal/par"
)

// JobKind identifies one of the four characterized EDA applications.
type JobKind int

// The four applications of the paper's characterization, in flow
// order.
const (
	JobSynthesis JobKind = iota
	JobPlacement
	JobRouting
	JobSTA
)

// JobKinds lists all four in flow order.
func JobKinds() []JobKind {
	return []JobKind{JobSynthesis, JobPlacement, JobRouting, JobSTA}
}

func (k JobKind) String() string {
	switch k {
	case JobSynthesis:
		return "synthesis"
	case JobPlacement:
		return "placement"
	case JobRouting:
		return "routing"
	case JobSTA:
		return "sta"
	}
	return fmt.Sprintf("job(%d)", int(k))
}

// StageConfig is the uniform per-stage execution configuration every
// engine accepts: the worker-pool bound and the performance probe. It
// is defined next to the pool substrate (par.StageConfig) so the
// engines can embed it without importing this package.
type StageConfig = par.StageConfig
