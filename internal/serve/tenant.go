package serve

import (
	"edacloud/internal/cloud"
	"edacloud/internal/flow"
)

// This file is the fairness half of admission control: a flow.Gate
// that meters each tenant's concurrent fleet spend against its
// weighted quota while every re-plan's forecast books leases. The gate
// sees each stage booking before it lands (flow.Forecaster.Forecast), so a
// tenant flooding the queue defers its own stages past its quota
// instead of crowding out the others — and the deferral is part of the
// deterministic placement simulation, not a runtime race.

// quotaInterval is one counted lease: tenant spend of rateUSDSec over
// [startSec, endSec).
type quotaInterval struct {
	startSec, endSec, rateUSDSec float64
}

// quotaGate enforces weighted per-tenant caps on concurrent fleet
// spend inside a forecast replay. The invariant it maintains: at any
// instant covered by two or more of a tenant's leases, their combined
// $/s is at most the tenant's cap. A single lease is always admitted
// when the tenant has nothing else overlapping it — the no-starvation
// floor that keeps a low-weight tenant schedulable on a fleet whose
// every machine out-prices its cap.
type quotaGate struct {
	// caps is each tenant's concurrent spend cap in USD per second.
	caps map[string]float64
	// tenantOf resolves a forecast job name to its tenant.
	tenantOf func(jobName string) string
	// intervals accumulates counted leases per tenant: the committed
	// leases it was seeded with plus every booking admitted since.
	intervals map[string][]quotaInterval
	// overlapping is Admit's list of the tenant's leases overlapping a
	// booking.
	overlapping []quotaInterval
}

// quotaCaps derives the per-tenant concurrent spend caps: the fleet's
// aggregate on-demand rate split by tenant weight.
func quotaCaps(fleet *cloud.Fleet, tenants []Tenant) map[string]float64 {
	var fleetRate, weightSum float64
	for _, inst := range fleet.Instances {
		fleetRate += inst.Type.PricePerHour / 3600
	}
	for _, t := range tenants {
		weightSum += t.Weight
	}
	caps := make(map[string]float64, len(tenants))
	for _, t := range tenants {
		caps[t.Name] = fleetRate * t.Weight / weightSum
	}
	return caps
}

// reset seeds the gate with the fleet's existing leases — the
// committed work that already counts against each tenant's quota when
// a re-plan's forecast starts booking — in the interval lists the last
// re-plan left, and returns it.
func (g *quotaGate) reset(fleet *cloud.Fleet) *quotaGate {
	if g.intervals == nil {
		g.intervals = map[string][]quotaInterval{}
	}
	for tn, ivs := range g.intervals {
		g.intervals[tn] = ivs[:0]
	}
	for _, inst := range fleet.Instances {
		for _, l := range inst.Leases {
			tn := g.tenantOf(l.Job)
			if tn == "" {
				continue
			}
			g.intervals[tn] = append(g.intervals[tn], quotaInterval{
				startSec: l.StartSec, endSec: l.EndSec, rateUSDSec: inst.Type.PricePerHour / 3600,
			})
		}
	}
	return g
}

// Admit implements flow.Gate. A booking with no overlapping lease of
// its own tenant is always admitted (no starvation); otherwise it must
// fit under the tenant's cap at every instant of its interval, or it
// defers to the earliest end of an overlapping own lease — strictly
// after the stage's ready time, so the gated simulation always makes
// progress.
func (g *quotaGate) Admit(job *flow.Job, k flow.JobKind, it cloud.InstanceType, startSec, durSec float64) (float64, bool) {
	tn := g.tenantOf(job.Name)
	if tn == "" {
		return 0, true
	}
	endSec := startSec + durSec
	rate := it.PricePerHour / 3600
	overlapping := g.overlapping[:0]
	for _, iv := range g.intervals[tn] {
		if iv.startSec < endSec && iv.endSec > startSec {
			overlapping = append(overlapping, iv)
		}
	}
	g.overlapping = overlapping
	if len(overlapping) == 0 {
		g.intervals[tn] = append(g.intervals[tn], quotaInterval{startSec, endSec, rate})
		return 0, true
	}
	// The tenant's concurrent spend is piecewise constant; its maximum
	// over [startSec, endSec) is attained at the candidate's start or at
	// an overlapping lease's start.
	peak := 0.0
	at := func(t float64) {
		sum := 0.0
		for _, iv := range overlapping {
			if iv.startSec <= t && t < iv.endSec {
				sum += iv.rateUSDSec
			}
		}
		if sum > peak {
			peak = sum
		}
	}
	at(startSec)
	for _, iv := range overlapping {
		if iv.startSec > startSec && iv.startSec < endSec {
			at(iv.startSec)
		}
	}
	if peak+rate > g.caps[tn]+1e-12 {
		deferUntil := overlapping[0].endSec
		for _, iv := range overlapping[1:] {
			if iv.endSec < deferUntil {
				deferUntil = iv.endSec
			}
		}
		return deferUntil, false
	}
	g.intervals[tn] = append(g.intervals[tn], quotaInterval{startSec, endSec, rate})
	return 0, true
}
