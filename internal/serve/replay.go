package serve

import (
	"fmt"
	"strings"

	"edacloud/internal/cloud"
)

// Report summarizes a replayed trace. Every field is a pure function
// of the trace and config, so String() is byte-identical across runs
// and worker counts.
type Report struct {
	Jobs      int `json:"jobs"`
	Admitted  int `json:"admitted"`
	Rejected  int `json:"rejected"`
	Completed int `json:"completed"`
	Canceled  int `json:"canceled"`
	// TotalCostUSD is the fleet ledger's bill for the whole trace.
	TotalCostUSD float64 `json:"total_cost_usd"`
	MakespanSec  float64 `json:"makespan_sec"`
	// MissedDeadlines counts completed jobs finishing past their
	// deadline; MissedPromises counts those finishing past the finish
	// promised at admission. Both must be zero: admission rejects what
	// it cannot promise, and re-plans are only adopted when no promise
	// breaks.
	MissedDeadlines int `json:"missed_deadlines"`
	MissedPromises  int `json:"missed_promises"`
	// CacheHits counts planned stages served from the shared artifact
	// cache across the whole trace — fleet-wide dedup over tenants
	// submitting templates with a common chain prefix.
	CacheHits int `json:"cache_hits,omitempty"`
	// Replans/Adopted/ReleasedLeases expose the rolling-horizon
	// machinery: re-optimizations run, plans adopted over the
	// incumbent, and future leases released for re-booking.
	Replans        int          `json:"replans"`
	Adopted        int          `json:"adopted"`
	ReleasedLeases int          `json:"released_leases"`
	Tenants        []TenantStat `json:"tenants"`
	Statuses       []JobStatus  `json:"statuses,omitempty"`
}

// Replay builds an engine over cfg, submits every trace job in arrival
// order, drains the engine, and reports. The caller's cfg.Fleet is
// consumed; the returned engine exposes the final fleet and job states.
func Replay(cfg Config, trace []TraceJob) (*Engine, *Report, error) {
	eng, err := New(cfg)
	if err != nil {
		return nil, nil, err
	}
	for _, tj := range trace {
		if _, err := eng.Submit(SubmitRequest{
			Tenant:      tj.Tenant,
			Template:    tj.Template,
			Name:        tj.Name,
			ArrivalSec:  tj.ArrivalSec,
			DeadlineSec: tj.DeadlineSec,
		}); err != nil {
			return nil, nil, fmt.Errorf("serve: replaying %q: %w", tj.Name, err)
		}
	}
	eng.Drain()
	return eng, eng.Report(), nil
}

// Report assembles the engine's current summary.
func (e *Engine) Report() *Report {
	r := &Report{
		Jobs:           len(e.jobs),
		TotalCostUSD:   e.fleet.TotalCostUSD(),
		Replans:        e.Replans,
		Adopted:        e.Adopted,
		ReleasedLeases: e.Released,
		Tenants:        e.TenantStats(),
		Statuses:       e.Jobs(),
	}
	for _, s := range r.Statuses {
		for _, st := range s.Stages {
			if st.Cached {
				r.CacheHits++
			}
		}
		switch s.Status {
		case StatusRejected:
			r.Rejected++
			continue
		case StatusCanceled:
			r.Canceled++
		case StatusDone:
			r.Completed++
			if s.FinishSec > r.MakespanSec {
				r.MakespanSec = s.FinishSec
			}
			if s.DeadlineSec > 0 && s.FinishSec > s.DeadlineSec+1e-9 {
				r.MissedDeadlines++
			}
			if s.PromisedSec > 0 && s.FinishSec > s.PromisedSec+1e-9 {
				r.MissedPromises++
			}
		}
		r.Admitted++
	}
	return r
}

// Fleet returns a copy of the engine's fleet over the full timeline:
// the settled archive in front of the live leases, with the same
// ledger.
func (e *Engine) Fleet() *cloud.Fleet { return e.fleet.Unsettle(e.settled) }

// String renders the report in a stable, diffable form: aggregates
// first, then one ledger line per tenant in config order. Job-level
// statuses are omitted — they are for the API, not the summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "jobs %d: admitted %d, rejected %d, completed %d, canceled %d\n",
		r.Jobs, r.Admitted, r.Rejected, r.Completed, r.Canceled)
	fmt.Fprintf(&b, "cost $%.4f  makespan %.3fs  missed-deadlines %d  missed-promises %d\n",
		r.TotalCostUSD, r.MakespanSec, r.MissedDeadlines, r.MissedPromises)
	fmt.Fprintf(&b, "replans %d (adopted %d, leases released %d)\n",
		r.Replans, r.Adopted, r.ReleasedLeases)
	if r.CacheHits > 0 {
		fmt.Fprintf(&b, "cache hits %d\n", r.CacheHits)
	}
	for _, t := range r.Tenants {
		fmt.Fprintf(&b, "tenant %s w=%.1f quota=$%.4f/h: submitted %d admitted %d rejected %d done %d canceled %d cost $%.4f\n",
			t.Name, t.Weight, t.QuotaUSDH, t.Submitted, t.Admitted, t.Rejected, t.Done, t.Canceled, t.CostUSD)
	}
	return b.String()
}
