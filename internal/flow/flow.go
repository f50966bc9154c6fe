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
// JobKind it implements, and Run against a RunContext. What a kind is
// — its name, its place in flow order, its engine's revision tag and
// the artifacts it reads and writes — is declared once, in the kinds
// table of artifacts.go; JobKind.String, JobKinds and the built-in
// stages' Name and EngineVersion read it. The RunContext
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
// The job's own data decides how it is placed. A job without a Plan
// holds its Instance under one lease for the whole flow — the
// historical one-job-one-VM schedule, on a dedicated per-job fleet
// when Scheduler.Fleet is nil. A job with a Plan executes a deployment
// optimizer's per-stage machine selection: it re-instances between
// stages, stage k queueing for Plan[k] (a zero type for any machine,
// the greedy first-fit baseline), and a job that also carries a choice
// table and a deadline has its remaining stages re-planned once queue
// wait has eaten its slack. Simulated stage
// runtimes come from replaying the flow's perf.Reports through the
// granted instance's machine model; bills come from the fleet's lease
// ledger under per-second pricing with optional minimum billing
// granularity.
package flow

import "edacloud/internal/par"

// StageConfig is the uniform per-stage execution configuration every
// engine accepts: the worker-pool bound and the performance probe. It
// is defined next to the pool substrate (par.StageConfig) so the
// engines can embed it without importing this package.
type StageConfig = par.StageConfig
