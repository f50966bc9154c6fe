package cloud

import (
	"math"
	"reflect"
	"testing"
)

func spotCatalog(t *testing.T) *Catalog {
	t.Helper()
	c, err := DefaultCatalog().WithSpot(0.7)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestWithSpotCatalogShape(t *testing.T) {
	base := DefaultCatalog()
	c := spotCatalog(t)
	if got, want := len(c.Types), 2*len(base.Types); got != want {
		t.Fatalf("spot catalog has %d types, want %d", got, want)
	}
	spot, err := c.ByName("gp.4x.spot")
	if err != nil {
		t.Fatal(err)
	}
	od, err := c.ByName("gp.4x")
	if err != nil {
		t.Fatal(err)
	}
	if !spot.Revocable || spot.OnDemand != "gp.4x" {
		t.Fatalf("spot variant not marked revocable with on-demand link: %+v", spot)
	}
	if od.Revocable || od.OnDemand != "" {
		t.Fatalf("on-demand type contaminated: %+v", od)
	}
	if spot.VCPUs != od.VCPUs || spot.AVX != od.AVX || spot.MemGiB != od.MemGiB {
		t.Fatal("spot variant changed the hardware, not just the price")
	}
	if want := od.PricePerHour * 0.3; math.Abs(spot.PricePerHour-want) > 1e-12 {
		t.Fatalf("spot price %g, want %g", spot.PricePerHour, want)
	}
	// Family/size lookups must still resolve to on-demand capacity.
	it, err := c.Size(GeneralPurpose, 4)
	if err != nil {
		t.Fatal(err)
	}
	if it.Name != "gp.4x" {
		t.Fatalf("Size resolved to %q, want the on-demand gp.4x", it.Name)
	}
	for _, discount := range []float64{0, 1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := c.WithSpot(discount); err == nil {
			t.Errorf("discount %g accepted", discount)
		}
	}
	// Spot-of-spot must not appear on a second application.
	c2, err := c.WithSpot(0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range c2.Types {
		if _, err := c2.ByName(it.Name + ".spot.spot"); err == nil {
			t.Fatalf("derived spot-of-spot from %q", it.Name)
		}
	}
}

// TestRevocationTimelinesDeterministic: timelines are a pure function
// of (seed, instance ID) — query order, interleaving across instances,
// and model recreation cannot change any event.
func TestRevocationTimelinesDeterministic(t *testing.T) {
	c := spotCatalog(t)
	mk := func() (*RevocationModel, *Fleet) {
		f, err := ParseFleetSpec(c, "gp.4x.spot=2,mem.8x.spot=1")
		if err != nil {
			t.Fatal(err)
		}
		m := NewRevocationModel(42, UniformSpotHazards(c, 6))
		f.Revocation = m
		return m, f
	}
	m1, f1 := mk()
	m2, f2 := mk()

	// Forward scan on model 1, scattered queries on model 2.
	var fwd []float64
	at := 0.0
	for i := 0; i < 5; i++ {
		tnext, ok := m1.NextRevocation(f1.Instances[0], at)
		if !ok {
			t.Fatal("hazard >0 produced no events")
		}
		if tnext <= at {
			t.Fatalf("event %g not after %g", tnext, at)
		}
		fwd = append(fwd, tnext)
		at = tnext
	}
	// Interleave other instances' queries, then ask the same questions.
	m2.NextRevocation(f2.Instances[2], 1e6)
	m2.NextRevocation(f2.Instances[1], 5000)
	at = 0.0
	for i := 0; i < 5; i++ {
		tnext, ok := m2.NextRevocation(f2.Instances[0], at)
		if !ok || tnext != fwd[i] {
			t.Fatalf("event %d: %g vs %g — timeline not a pure function", i, tnext, fwd[i])
		}
		at = tnext
	}

	// Distinct instances of one type get decorrelated streams.
	a, _ := m1.NextRevocation(f1.Instances[0], 0)
	b, _ := m1.NextRevocation(f1.Instances[1], 0)
	if a == b {
		t.Fatalf("instances share a stream: first event %g for both", a)
	}

	// Different seed, different timeline.
	m3 := NewRevocationModel(43, UniformSpotHazards(c, 6))
	c3, _ := m3.NextRevocation(f1.Instances[0], 0)
	if c3 == a {
		t.Fatal("seed does not enter the stream")
	}

	// On-demand types and zero-hazard models never revoke.
	od, err := c.ByName("gp.4x")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m1.NextRevocation(&FleetInstance{ID: "gp.4x#0", Type: od}, 0); ok {
		t.Fatal("on-demand instance revoked")
	}
	zero := NewRevocationModel(42, nil)
	if _, ok := zero.NextRevocation(f1.Instances[0], 0); ok {
		t.Fatal("zero-hazard model revoked")
	}
}

// TestBookTruncatesAtRevocation: a lease overlapping a revocation event
// ends there, bills only the survived interval, and frees the
// (replaced) instance at the event time.
func TestBookTruncatesAtRevocation(t *testing.T) {
	c := spotCatalog(t)
	f, err := ParseFleetSpec(c, "gp.4x.spot=1")
	if err != nil {
		t.Fatal(err)
	}
	m := NewRevocationModel(7, UniformSpotHazards(c, 6))
	f.Revocation = m

	rev, ok := m.NextRevocation(f.Instances[0], 0)
	if !ok {
		t.Fatal("no revocation events")
	}
	dur := rev + 100 // guaranteed to straddle the first event
	li := f.Book(0, "job", "synthesis", 0, dur)
	l := f.Lease(0, li)
	if !l.Revoked || l.RevokedAt != rev || l.EndSec != rev {
		t.Fatalf("lease not truncated at %g: %+v", rev, l)
	}
	inst := f.Instances[0]
	if want := inst.Type.Cost(rev); l.CostUSD != want {
		t.Fatalf("truncated lease billed %g, want %g (up to revocation only)", l.CostUSD, want)
	}
	if inst.FreeAtSec != rev {
		t.Fatalf("instance free at %g, want the revocation time %g", inst.FreeAtSec, rev)
	}
	if inst.BusySec != rev {
		t.Fatalf("busy %g, want %g", inst.BusySec, rev)
	}
	if inst.CostUSD != l.CostUSD {
		t.Fatalf("ledger %g vs lease sum %g", inst.CostUSD, l.CostUSD)
	}

	// A booking that fits entirely before the next event survives.
	next, ok := m.NextRevocation(inst, rev)
	if !ok {
		t.Fatal("stream ended")
	}
	gap := next - rev
	li = f.Book(0, "job", "synthesis", rev, gap/2)
	if l := f.Lease(0, li); l.Revoked {
		t.Fatalf("lease inside the survival gap revoked: %+v", l)
	}
}

// TestExtendTruncatesAtRevocation: only an event inside the extension
// segment cuts a held lease; the surviving prefix stays billed.
func TestExtendTruncatesAtRevocation(t *testing.T) {
	c := spotCatalog(t)
	f, err := ParseFleetSpec(c, "mem.8x.spot=1")
	if err != nil {
		t.Fatal(err)
	}
	m := NewRevocationModel(11, UniformSpotHazards(c, 6))
	f.Revocation = m
	inst := f.Instances[0]

	rev, ok := m.NextRevocation(inst, 0)
	if !ok {
		t.Fatal("no events")
	}
	// Book a surviving prefix, then extend across the event.
	first := rev / 2
	li := f.Book(0, "job", "synthesis", 0, first)
	if f.Lease(0, li).Revoked {
		t.Fatal("prefix revoked")
	}
	marginal := f.Extend(0, "placement", rev) // would end at 1.5*rev
	l := f.Lease(0, li)
	if !l.Revoked || l.RevokedAt != rev || l.EndSec != rev {
		t.Fatalf("extension not truncated at %g: %+v", rev, l)
	}
	if want := inst.Type.Cost(rev); l.CostUSD != want {
		t.Fatalf("lease billed %g, want %g", l.CostUSD, want)
	}
	if want := inst.Type.Cost(rev) - inst.Type.Cost(first); math.Abs(marginal-want) > 1e-12 {
		t.Fatalf("marginal %g, want %g", marginal, want)
	}
	if inst.BusySec != rev || inst.FreeAtSec != rev {
		t.Fatalf("busy/free %g/%g, want %g/%g", inst.BusySec, inst.FreeAtSec, rev, rev)
	}
}

// TestZeroHazardFleetIdentical: attaching a zero-hazard model changes
// nothing — bookings, ledgers and clones match a model-free fleet
// field for field.
func TestZeroHazardFleetIdentical(t *testing.T) {
	c := spotCatalog(t)
	run := func(attach bool) *Fleet {
		f, err := ParseFleetSpec(c, "gp.4x.spot=2,gp.4x=1")
		if err != nil {
			t.Fatal(err)
		}
		if attach {
			f.Revocation = NewRevocationModel(42, nil)
		}
		f.Book(0, "a", "synthesis", 0, 300)
		f.Book(1, "b", "synthesis", 10, 500)
		f.Extend(1, "placement", 200)
		f.Book(2, "c", "sta", 0, 50)
		return f
	}
	plain, modeled := run(false), run(true)
	for i := range plain.Instances {
		if !reflect.DeepEqual(*plain.Instances[i], *modeled.Instances[i]) {
			t.Fatalf("instance %d differs under zero hazard:\n%+v\n%+v",
				i, *plain.Instances[i], *modeled.Instances[i])
		}
	}
	// Clone shares the model so forecasts replay the same timelines.
	modeled.Revocation = NewRevocationModel(42, UniformSpotHazards(c, 6))
	clone := modeled.Clone()
	if clone.Revocation != modeled.Revocation {
		t.Fatal("clone does not share the revocation model")
	}
}
