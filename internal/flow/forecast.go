package flow

import (
	"fmt"
	"slices"

	"edacloud/internal/cloud"
)

// This file is the contention-aware prediction half of the batch
// co-optimizer's contract: given each job's planned stages with their
// predicted runtimes, Forecast replays the scheduler's own placement
// engine (the same simulate loop, the same fleet Acquire/Book
// arithmetic, the same FIFO tie-breaks) without running any pipeline.
// Because the event loop is shared code — not a reimplementation — a
// forecast agrees bit-for-bit with the schedule a real run of planned
// jobs produces whenever the predicted stage runtimes match the executed
// ones, which is exactly what TestBatchPlanExecutionMatchesPrediction
// pins down.

// ForecastStage is one predicted stage placement request: the
// instance type the stage queues for and its predicted runtime there.
type ForecastStage struct {
	Kind    JobKind
	Type    cloud.InstanceType
	Seconds float64
	// Cached marks a predicted artifact-cache hit: the placement engine
	// prices the stage at the probe constant and books no lease for it,
	// exactly as the execution will. Seconds is ignored for cached
	// stages.
	Cached bool
}

// ForecastJob is one job of a predicted batch, in stage order.
type ForecastJob struct {
	Name        string
	DeadlineSec float64
	// ReadySec is the earliest simulated time the job's first stage may
	// start — the arrival (or checkpoint) time of a job entering a
	// rolling-horizon forecast. Zero (the batch case) means ready
	// immediately.
	ReadySec float64
	Stages   []ForecastStage
	// Retry carries the job's revocation retry policy into the replay,
	// so a forecast on a revocation-modeled fleet reacts to truncated
	// leases exactly as the execution will.
	Retry RetryPolicy
}

// Forecast replays the fleet scheduler's stage-level placement
// discipline over predicted stage runtimes: jobs queue FIFO by ready
// time, each stage takes the earliest-free instance of its requested
// type (one lease per stage, as for a planned job), and bills follow
// the fleet's lease ledger. The fleet is mutated with the forecast's
// leases — pass a cloud.Fleet.Clone to keep the real one pristine.
// The returned Schedule carries no artifacts (JobResult.Run is nil).
func Forecast(fleet *cloud.Fleet, jobs []ForecastJob) (*Schedule, error) {
	return new(Forecaster).Forecast(fleet, jobs, nil)
}

// Forecaster runs forecasts in storage it keeps from one call to the
// next: the prepared jobs, the placement runners and queue, each job's
// stage results and the Schedule. A rolling-horizon re-planner keeps
// one for its lifetime; the zero value is ready. Not safe for
// concurrent use.
type Forecaster struct {
	jobs     []Job
	pjobs    []preparedJob
	prepared []*preparedJob
	runners  []runner
	queue    []*runner
	sched    Schedule
}

// Forecast is flow.Forecast run in the Forecaster's storage, with an
// admission gate threaded into the placement simulation: every stage
// booking first passes gate.Admit, which may defer it (see Gate).
// This is the serving layer's booking path — a rolling-horizon re-plan
// replayed onto the live fleet under per-tenant quotas. A nil gate
// admits everything. The returned Schedule, its jobs and their stages
// are the Forecaster's until the next call, so a caller that keeps
// them copies them out first.
func (f *Forecaster) Forecast(fleet *cloud.Fleet, jobs []ForecastJob, gate Gate) (*Schedule, error) {
	n := len(jobs)
	f.jobs = slices.Grow(f.jobs[:0], n)[:n]
	f.pjobs = slices.Grow(f.pjobs[:0], n)[:n]
	f.prepared = slices.Grow(f.prepared[:0], n)[:n]
	for i, fj := range jobs {
		if fj.ReadySec < 0 {
			return nil, fmt.Errorf("flow: forecast job %q has negative ready time", fj.Name)
		}
		f.jobs[i] = Job{Name: fj.Name, DeadlineSec: fj.DeadlineSec, Retry: fj.Retry}
		p := &f.pjobs[i]
		*p = preparedJob{
			res:      JobResult{Name: fj.Name, Stages: slices.Grow(p.res.Stages[:0], len(fj.Stages))},
			kinds:    slices.Grow(p.kinds[:0], len(fj.Stages)),
			forecast: true,
			readySec: fj.ReadySec,
		}
		for _, st := range fj.Stages {
			if !st.Kind.valid() {
				return nil, fmt.Errorf("flow: forecast job %q stage %s is not one of JobKinds", fj.Name, st.Kind)
			}
			if st.Type.Name == "" && !st.Cached {
				return nil, fmt.Errorf("flow: forecast job %q stage %s requests no instance type", fj.Name, st.Kind)
			}
			if st.Seconds < 0 {
				return nil, fmt.Errorf("flow: forecast job %q stage %s has negative runtime", fj.Name, st.Kind)
			}
			if slices.Contains(p.kinds, st.Kind) {
				return nil, fmt.Errorf("flow: forecast job %q repeats stage %s", fj.Name, st.Kind)
			}
			p.kinds = append(p.kinds, st.Kind)
			p.requests[st.Kind] = st.Type
			p.seconds[st.Kind] = st.Seconds
			p.cached[st.Kind] = st.Cached
		}
		f.prepared[i] = p
	}
	f.runners, f.queue = slices.Grow(f.runners[:0], n), slices.Grow(f.queue[:0], n)
	simulate(fleet, f.jobs, f.prepared, false, gate, f.runners, f.queue)
	for i := range f.prepared {
		if err := f.prepared[i].res.Err; err != nil {
			return nil, fmt.Errorf("flow: forecast job %q: %w", jobs[i].Name, err)
		}
	}
	return buildSchedule(&f.sched, fleet, f.prepared), nil
}
