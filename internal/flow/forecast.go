package flow

import (
	"fmt"

	"edacloud/internal/cloud"
)

// This file is the contention-aware prediction half of the batch
// co-optimizer's contract: given each job's planned stages with their
// predicted runtimes, Forecast replays the scheduler's own placement
// engine (the same simulate loop, the same fleet Acquire/Book
// arithmetic, the same FIFO tie-breaks) without running any pipeline.
// Because the event loop is shared code — not a reimplementation — a
// forecast agrees bit-for-bit with the schedule a real PlanPolicy run
// produces whenever the predicted stage runtimes match the executed
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
// type (one lease per stage, as under PlanPolicy), and bills follow
// the fleet's lease ledger. The fleet is mutated with the forecast's
// leases — pass a cloud.Fleet.Clone to keep the real one pristine.
// The returned Schedule carries no artifacts (JobResult.Run is nil).
func Forecast(fleet *cloud.Fleet, jobs []ForecastJob) (*Schedule, error) {
	return ForecastGated(fleet, jobs, nil)
}

// ForecastGated is Forecast with an admission gate threaded into the
// placement simulation: every stage booking first passes gate.Admit,
// which may defer it (see Gate). This is the serving layer's booking
// path — a rolling-horizon re-plan replayed onto the live fleet under
// per-tenant quotas. A nil gate admits everything, reproducing
// Forecast exactly.
func ForecastGated(fleet *cloud.Fleet, jobs []ForecastJob, gate Gate) (*Schedule, error) {
	fjobs := make([]Job, len(jobs))
	prepared := make([]*preparedJob, len(jobs))
	for i, fj := range jobs {
		if fj.ReadySec < 0 {
			return nil, fmt.Errorf("flow: forecast job %q has negative ready time", fj.Name)
		}
		fjobs[i] = Job{Name: fj.Name, DeadlineSec: fj.DeadlineSec, Retry: fj.Retry}
		p := &preparedJob{
			res:      JobResult{Name: fj.Name},
			requests: map[JobKind]cloud.InstanceType{},
			seconds:  map[JobKind]float64{},
			readySec: fj.ReadySec,
		}
		for _, st := range fj.Stages {
			if st.Type.Name == "" && !st.Cached {
				return nil, fmt.Errorf("flow: forecast job %q stage %s requests no instance type", fj.Name, st.Kind)
			}
			if st.Seconds < 0 {
				return nil, fmt.Errorf("flow: forecast job %q stage %s has negative runtime", fj.Name, st.Kind)
			}
			if _, dup := p.requests[st.Kind]; dup {
				return nil, fmt.Errorf("flow: forecast job %q repeats stage %s", fj.Name, st.Kind)
			}
			p.kinds = append(p.kinds, st.Kind)
			p.requests[st.Kind] = st.Type
			p.seconds[st.Kind] = st.Seconds
			if st.Cached {
				if p.cached == nil {
					p.cached = map[JobKind]bool{}
				}
				p.cached[st.Kind] = true
			}
		}
		prepared[i] = p
	}
	simulate(fleet, PlanPolicy{}, fjobs, prepared, false, gate)
	for i := range prepared {
		if err := prepared[i].res.Err; err != nil {
			return nil, fmt.Errorf("flow: forecast job %q: %w", jobs[i].Name, err)
		}
	}
	return buildSchedule("forecast", fleet, prepared), nil
}
