// Package serve is the multi-tenant serving layer over the repo's
// deterministic simulation core: a persistent admission-controlled job
// queue in which tenants submit flow jobs online (Poisson/bursty
// arrivals rather than a one-shot batch) and a rolling-horizon
// re-optimizer re-plans the uncommitted tail of the schedule at every
// arrival and completion event.
//
// The moving parts are the seams the lower layers already expose:
//
//   - cloud.Fleet.SnapshotInto + ReleaseFrom give the commit/release
//     discipline — leases that have started stand (a booked stage runs
//     to its checkpoint), everything later is released and re-booked.
//     Fleet.Settle moves leases the clock has passed out of the live
//     fleet into an archive, so this costs the live tail, not the
//     history.
//   - mckp.BatchOptimizeState re-solves all in-flight plans jointly
//     against the remaining capacity, warm-started from the previous
//     event's shadow prices so consecutive events converge in a round
//     or two.
//   - a flow.Forecaster replays the picks through the scheduler's own
//     placement engine under a per-tenant quota Gate, producing the
//     exact lease timeline the fleet will carry.
//
// Everything runs in simulated time on a single goroutine, so a trace
// replayed twice yields byte-identical admission decisions and
// schedules — the serving layer inherits the simulator's
// determinism instead of fighting it.
package serve

import (
	"fmt"
	"math"
	"slices"

	"edacloud/internal/cache"
	"edacloud/internal/cloud"
	"edacloud/internal/flow"
	"edacloud/internal/mckp"
)

// Template is one submittable job shape: an ordered list of flow
// stages with the per-stage instance choice table a deployment
// characterization produced (core.DeploymentProblem.Classes). Item
// labels name instance types of the serving fleet; item times are the
// predicted stage runtimes the engine books and simulates.
type Template struct {
	Name string
	// Kinds is the stage order; Classes is aligned with it.
	Kinds   []flow.JobKind
	Classes []mckp.Class
	// Chain, when non-empty, is the template's artifact cache key chain
	// (core.CacheChain), aligned with Kinds; key 0 marks an uncacheable
	// stage. Two templates sharing a chain prefix — the same design
	// synthesized under the same recipe, submitted by any tenant — share
	// the artifacts: the engine predicts every stage whose key an
	// earlier admitted job introduced as a cache hit and prices it at
	// the probe constant. Empty disables cache awareness for the
	// template.
	Chain []cache.Key
}

// Tenant is one customer of the serving fleet with its fair-share
// weight. Weights partition the fleet's total spend rate: tenant t may
// hold concurrent leases worth at most Weight_t/sum(Weights) of the
// fleet's aggregate $/s — except that a tenant with nothing running is
// always allowed one stage (no starvation).
type Tenant struct {
	Name   string
	Weight float64
}

// Config assembles a serving engine.
type Config struct {
	// Fleet is the bounded machine pool every tenant contends for. The
	// engine owns it from New on.
	Fleet *cloud.Fleet
	// Tenants declares the customers and their fair-share weights.
	Tenants []Tenant
	// Templates declares the submittable job shapes.
	Templates []Template
	// Hazards, when non-empty, risk-prices every template's choice
	// table at registration (mckp.Adjust with no retry backoff), so
	// admission forecasts price spot capacity at its revocation-adjusted
	// expectation; a predicted cache hit is still priced at the probe
	// constant. A NaN, infinite or negative rate is refused.
	Hazards mckp.Hazards
	// Independent switches the engine to the per-arrival baseline: each
	// job is planned solo (its own min-cost DP, congestion ignored) and
	// booked after the existing reservations, with no re-planning at
	// later events — the foil the rolling-horizon mode is measured
	// against.
	Independent bool
	// OnEvent, when non-nil, receives the simulated progress stream:
	// every committed stage start/finish as flow.WithEvents-style
	// events, in simulated-time order.
	OnEvent func(Event)
}

// Event is one simulated progress event of one job: the existing
// pipeline hook's payload (flow.Event) stamped with the serving
// context. Flow.Type distinguishes stage starts from finishes; Flow
// carries the stage kind, index and total exactly as flow.WithEvents
// would during a real pipeline run.
type Event struct {
	AtSec  float64
	JobID  int
	Job    string
	Tenant string
	Flow   flow.Event
}

// Job states reported by Status.
const (
	StatusAdmitted = "admitted"
	StatusRejected = "rejected"
	StatusDone     = "done"
	StatusCanceled = "canceled"
)

// PlannedStage is one stage of a job's current plan: where and when it
// runs (or ran) and what the lease bills. Stages with StartSec before
// the engine's current time are committed and never move again;
// later ones are re-planned at every event.
type PlannedStage struct {
	Kind     flow.JobKind `json:"kind"`
	Type     string       `json:"type"`
	StartSec float64      `json:"start_sec"`
	EndSec   float64      `json:"end_sec"`
	CostUSD  float64      `json:"cost_usd"`
	// Cached marks a predicted artifact-cache hit: the stage is served
	// from the shared store at the probe constant, books no lease and
	// bills nothing.
	Cached bool `json:"cached,omitempty"`
}

// JobStatus is the queryable state of one submitted job.
type JobStatus struct {
	ID          int     `json:"id"`
	Name        string  `json:"name"`
	Tenant      string  `json:"tenant"`
	Template    string  `json:"template"`
	ArrivalSec  float64 `json:"arrival_sec"`
	DeadlineSec float64 `json:"deadline_sec,omitempty"`
	Status      string  `json:"status"`
	// Reason explains a rejection.
	Reason string `json:"reason,omitempty"`
	// PromisedSec is the finish time promised at admission — the
	// engine's contract: later re-plans may finish the job earlier but
	// never later than this. Zero for deadline-free jobs, which asked
	// for best effort and may be re-planned freely.
	PromisedSec float64        `json:"promised_sec,omitempty"`
	FinishSec   float64        `json:"finish_sec,omitempty"`
	CostUSD     float64        `json:"cost_usd"`
	Stages      []PlannedStage `json:"stages,omitempty"`
}

// TenantStat is one tenant's ledger line.
type TenantStat struct {
	Name      string  `json:"name"`
	Weight    float64 `json:"weight"`
	QuotaUSDH float64 `json:"quota_usd_per_hour"`
	Submitted int     `json:"submitted"`
	Admitted  int     `json:"admitted"`
	Rejected  int     `json:"rejected"`
	Done      int     `json:"done"`
	Canceled  int     `json:"canceled"`
	CostUSD   float64 `json:"cost_usd"`
}

// CheckTenants refuses a tenant list New would refuse: it must name
// every tenant once with a finite positive weight, and the weights
// must have a finite sum — a NaN or infinite weight turns the quota
// caps into NaN, which never binds.
func CheckTenants(tenants []Tenant) error {
	if len(tenants) == 0 {
		return fmt.Errorf("serve: config needs at least one tenant")
	}
	seen := map[string]bool{}
	var weightSum float64
	for _, t := range tenants {
		if t.Name == "" || !(t.Weight > 0) || math.IsInf(t.Weight, 1) {
			return fmt.Errorf("serve: tenant %+v needs a name and a finite positive weight", t)
		}
		if seen[t.Name] {
			return fmt.Errorf("serve: tenant %q declared twice", t.Name)
		}
		seen[t.Name] = true
		weightSum += t.Weight
	}
	if math.IsInf(weightSum, 1) {
		return fmt.Errorf("serve: tenant weights overflow when summed")
	}
	return nil
}

// validate checks a config's fleet, tenants and templates against each
// other: the tenants as CheckTenants does, every template named once
// with its stages shaped consistently and each of flow.JobKinds at most
// once, every choice-table label
// resolvable to a fleet instance type.
func (cfg *Config) validate() error {
	if cfg.Fleet == nil || len(cfg.Fleet.Instances) == 0 {
		return fmt.Errorf("serve: config needs a non-empty fleet")
	}
	if err := CheckTenants(cfg.Tenants); err != nil {
		return err
	}
	if len(cfg.Templates) == 0 {
		return fmt.Errorf("serve: config needs at least one template")
	}
	names := map[string]bool{}
	for _, tpl := range cfg.Templates {
		if tpl.Name == "" {
			return fmt.Errorf("serve: template needs a name")
		}
		if names[tpl.Name] {
			return fmt.Errorf("serve: template %q declared twice", tpl.Name)
		}
		names[tpl.Name] = true
		if len(tpl.Kinds) == 0 || len(tpl.Kinds) != len(tpl.Classes) {
			return fmt.Errorf("serve: template %q needs aligned stages and classes", tpl.Name)
		}
		// A job's stages are placed by kind, each kind once.
		for l, k := range tpl.Kinds {
			if !slices.Contains(flow.JobKinds(), k) {
				return fmt.Errorf("serve: template %q stage %d is %s, not one of flow.JobKinds", tpl.Name, l, k)
			}
			if slices.Contains(tpl.Kinds[:l], k) {
				return fmt.Errorf("serve: template %q repeats stage %s", tpl.Name, k)
			}
		}
		if len(tpl.Chain) != 0 && len(tpl.Chain) != len(tpl.Kinds) {
			return fmt.Errorf("serve: template %q chain has %d keys for %d stages", tpl.Name, len(tpl.Chain), len(tpl.Kinds))
		}
		for l, cl := range tpl.Classes {
			if len(cl.Items) == 0 {
				return fmt.Errorf("serve: template %q stage %s has no items", tpl.Name, tpl.Kinds[l])
			}
			for _, it := range cl.Items {
				if _, ok := cfg.Fleet.TypeByName(it.Label); !ok {
					return fmt.Errorf("serve: template %q stage %s names instance type %q absent from the fleet",
						tpl.Name, tpl.Kinds[l], it.Label)
				}
				if it.TimeSec < 0 || it.Cost < 0 {
					return fmt.Errorf("serve: template %q stage %s has negative item %+v", tpl.Name, tpl.Kinds[l], it)
				}
			}
		}
	}
	return cfg.Hazards.Validate()
}
