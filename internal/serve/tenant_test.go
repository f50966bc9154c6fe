package serve

import (
	"math"
	"testing"

	"edacloud/internal/cloud"
	"edacloud/internal/flow"
)

// TestQuotaCaps: the fleet's aggregate $/s splits by tenant weight.
func TestQuotaCaps(t *testing.T) {
	fleet := testFleet(t)
	var fleetRate float64
	for _, inst := range fleet.Instances {
		fleetRate += inst.Type.PricePerHour / 3600
	}
	caps := quotaCaps(fleet, []Tenant{{Name: "a", Weight: 3}, {Name: "b", Weight: 1}})
	if math.Abs(caps["a"]-fleetRate*0.75) > 1e-12 || math.Abs(caps["b"]-fleetRate*0.25) > 1e-12 {
		t.Fatalf("caps %v, fleet rate %g", caps, fleetRate)
	}
}

// TestQuotaGateAdmit drives the gate directly: the first lease always
// lands (no starvation), a second concurrent lease over the cap defers
// to the first one's end, a cheap one under the cap fits, and a
// distinct tenant is metered independently.
func TestQuotaGateAdmit(t *testing.T) {
	fleet := testFleet(t)
	gp, _ := fleet.TypeByName("gp.2x")
	rate := gp.PricePerHour / 3600
	tenants := map[string]string{"j0": "a", "j1": "a", "j2": "b"}
	lookup := func(name string) string { return tenants[name] }

	// Cap affords one and a half gp.2x machines concurrently.
	caps := map[string]float64{"a": 1.5 * rate, "b": 1.5 * rate}
	g := (&quotaGate{caps: caps, tenantOf: lookup}).reset(fleet)
	job := func(name string) *flow.Job { return &flow.Job{Name: name} }

	// First lease: over half the cap, admitted on the floor.
	if until, ok := g.Admit(job("j0"), flow.JobSynthesis, gp, 0, 100); !ok {
		t.Fatalf("first lease deferred until %g", until)
	}
	// Second concurrent lease of the same tenant: 2.0x > 1.5x cap,
	// deferred exactly to the first one's end.
	if until, ok := g.Admit(job("j1"), flow.JobSynthesis, gp, 10, 100); ok || until != 100 {
		t.Fatalf("over-cap lease: ok=%v until=%g, want deferral to 100", ok, until)
	}
	// After the first lease ends it fits.
	if _, ok := g.Admit(job("j1"), flow.JobSynthesis, gp, 100, 100); !ok {
		t.Fatal("post-deferral lease still blocked")
	}
	// The other tenant is not charged for tenant a's spend.
	if _, ok := g.Admit(job("j2"), flow.JobSynthesis, gp, 10, 100); !ok {
		t.Fatal("tenant b blocked by tenant a's leases")
	}
	// Unknown jobs (no tenant) pass through unmetered.
	if _, ok := g.Admit(job("outsider"), flow.JobSynthesis, gp, 0, 1e6); !ok {
		t.Fatal("tenantless job metered")
	}
}

// TestQuotaGateSeededFromFleet: committed leases already on the fleet
// count against their tenant from the first ask.
func TestQuotaGateSeededFromFleet(t *testing.T) {
	fleet := testFleet(t)
	gp, _ := fleet.TypeByName("gp.2x")
	rate := gp.PricePerHour / 3600
	// Commit a lease for tenant a on instance 0.
	fleet.Instances[0].Leases = append(fleet.Instances[0].Leases, cloud.Lease{
		Job: "j0", Stage: "synthesis", StartSec: 0, EndSec: 200, CostUSD: gp.Cost(200),
	})
	lookup := func(name string) string {
		if name == "j0" || name == "j1" {
			return "a"
		}
		return ""
	}
	g := (&quotaGate{caps: map[string]float64{"a": 1.5 * rate}, tenantOf: lookup}).reset(fleet)
	// A concurrent second lease busts the cap because of the seed.
	if until, ok := g.Admit(&flow.Job{Name: "j1"}, flow.JobSynthesis, gp, 50, 100); ok || until != 200 {
		t.Fatalf("seeded lease ignored: ok=%v until=%g", ok, until)
	}
}
