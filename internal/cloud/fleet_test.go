package cloud

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func testFleet(t *testing.T) *Fleet {
	t.Helper()
	c := DefaultCatalog()
	gp, err := c.ByName("gp.4x")
	if err != nil {
		t.Fatal(err)
	}
	mem, err := c.ByName("mem.8x")
	if err != nil {
		t.Fatal(err)
	}
	return NewFleet(FleetEntry{Type: gp, Count: 2}, FleetEntry{Type: mem, Count: 1})
}

func TestNewFleetLayout(t *testing.T) {
	f := testFleet(t)
	if len(f.Instances) != 3 {
		t.Fatalf("%d instances, want 3", len(f.Instances))
	}
	for i, want := range []string{"gp.4x#0", "gp.4x#1", "mem.8x#0"} {
		if f.Instances[i].ID != want {
			t.Fatalf("instance %d ID %q, want %q", i, f.Instances[i].ID, want)
		}
	}
	if f.String() != "gp.4x=2,mem.8x=1" {
		t.Fatalf("fleet spec %q", f.String())
	}
	if n := f.Types()["gp.4x"]; n != 2 {
		t.Fatalf("Types gp.4x = %d", n)
	}
}

func TestParseFleetSpec(t *testing.T) {
	c := DefaultCatalog()
	f, err := ParseFleetSpec(c, "gp.4x=2, mem.8x")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Instances) != 3 || f.String() != "gp.4x=2,mem.8x=1" {
		t.Fatalf("parsed fleet %q with %d instances", f.String(), len(f.Instances))
	}
	for _, bad := range []string{"", "nope=1", "gp.4x=0", "gp.4x=x"} {
		if _, err := ParseFleetSpec(c, bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}

// TestParseFleetSpecBoundsInstances: a spec whose counts add up past
// MaxFleetInstances is refused (one billion instances used to be
// allocated one by one until the process ran out of memory), and one
// exactly at the bound is built.
func TestParseFleetSpecBoundsInstances(t *testing.T) {
	c := DefaultCatalog()
	for _, bad := range []string{
		"gp.4x=1000000000",
		"gp.4x=1,gp.4x=9223372036854775807", // a running sum would wrap negative
		fmt.Sprintf("gp.4x=%d", MaxFleetInstances+1),
		fmt.Sprintf("gp.4x=%d,mem.8x", MaxFleetInstances),
	} {
		if _, err := ParseFleetSpec(c, bad); err == nil || !strings.Contains(err.Error(), "more than") {
			t.Fatalf("spec %q: err %v, want the instance bound", bad, err)
		}
	}
	f, err := ParseFleetSpec(c, fmt.Sprintf("gp.4x=%d,mem.8x=%d", MaxFleetInstances-1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Instances) != MaxFleetInstances {
		t.Fatalf("%d instances, want %d", len(f.Instances), MaxFleetInstances)
	}
}

// FuzzParseFleetSpec: no spec panics the parser, and an accepted one
// yields exactly the instances its counts add up to, within
// MaxFleetInstances. Seed corpus in testdata/fuzz/FuzzParseFleetSpec.
func FuzzParseFleetSpec(f *testing.F) {
	f.Add("gp.4x=2, mem.8x")
	f.Add("gp.1x=1,gp.2x=1,gp.4x=1,gp.8x=1,mem.1x=1,mem.2x=1,mem.4x=1,mem.8x=1")
	c := DefaultCatalog()
	f.Fuzz(func(t *testing.T, spec string) {
		fleet, err := ParseFleetSpec(c, spec)
		if err != nil {
			return
		}
		want := 0
		for _, part := range strings.Split(spec, ",") {
			if part = strings.TrimSpace(part); part == "" {
				continue
			}
			count := 1
			if _, n, ok := strings.Cut(part, "="); ok {
				if count, err = strconv.Atoi(strings.TrimSpace(n)); err != nil {
					t.Fatalf("spec %q accepted with count %q", spec, n)
				}
			}
			want += count
		}
		if len(fleet.Instances) != want || want > MaxFleetInstances {
			t.Fatalf("spec %q: %d instances, counts add up to %d (bound %d)",
				spec, len(fleet.Instances), want, MaxFleetInstances)
		}
	})
}

func TestAcquireEarliestFreeDeterministicTies(t *testing.T) {
	f := testFleet(t)
	// Fresh fleet: ties break toward the lowest index.
	idx, start, err := f.Acquire("gp.4x", 0)
	if err != nil || idx != 0 || start != 0 {
		t.Fatalf("Acquire = %d @ %g, %v", idx, start, err)
	}
	f.Book(idx, "a", "synthesis", start, 100)
	// First gp instance busy until 100: the second wins.
	idx, start, err = f.Acquire("gp.4x", 10)
	if err != nil || idx != 1 || start != 10 {
		t.Fatalf("Acquire = %d @ %g, %v", idx, start, err)
	}
	f.Book(idx, "b", "synthesis", start, 200)
	// Both busy: earliest-free wins; start clamps to the free time.
	idx, start, err = f.Acquire("gp.4x", 0)
	if err != nil || idx != 0 || start != 100 {
		t.Fatalf("Acquire = %d @ %g, %v", idx, start, err)
	}
	// Any-type acquisition may pick the idle memory instance.
	idx, start, err = f.Acquire("", 5)
	if err != nil || idx != 2 || start != 5 {
		t.Fatalf("Acquire(any) = %d @ %g, %v", idx, start, err)
	}
	if _, _, err := f.Acquire("cpu.8x", 0); err == nil {
		t.Fatal("absent type accepted")
	}
	if _, _, err := (&Fleet{}).Acquire("", 0); err == nil {
		t.Fatal("empty fleet accepted")
	}
}

func TestBookAndLedger(t *testing.T) {
	f := testFleet(t)
	li := f.Book(0, "a", "synthesis", 0, 90.5)
	l := f.Lease(0, li)
	if l.Job != "a" || l.StartSec != 0 || l.EndSec != 90.5 {
		t.Fatalf("lease %+v", l)
	}
	if want := f.Instances[0].Type.Cost(90.5); l.CostUSD != want {
		t.Fatalf("lease cost %g, want %g", l.CostUSD, want)
	}
	f.Book(2, "b", "routing", 10, 200)
	if got := f.TotalCostUSD(); math.Abs(got-(l.CostUSD+f.Instances[2].Type.Cost(200))) > 1e-12 {
		t.Fatalf("fleet bill %g", got)
	}
	if f.HorizonSec() != 210 {
		t.Fatalf("horizon %g", f.HorizonSec())
	}
	// Busy 90.5+200 over 3 instances x 210s horizon.
	if got, want := f.Utilization(0), (90.5+200)/(3*210.0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("utilization %g, want %g", got, want)
	}
	rows := f.Ledger(0)
	if len(rows) != 3 || rows[0].Leases != 1 || rows[1].Leases != 0 || rows[2].BusySec != 200 {
		t.Fatalf("ledger %+v", rows)
	}
}

func TestExtendRebillsWholeLease(t *testing.T) {
	f := testFleet(t)
	f.Book(0, "a", "synthesis", 0, 40)
	delta := f.Extend(0, "placement", 30)
	l := f.Lease(0, 0)
	if l.EndSec != 70 || l.Stage != "synthesis+placement" {
		t.Fatalf("extended lease %+v", l)
	}
	typ := f.Instances[0].Type
	if want := typ.Cost(70); l.CostUSD != want {
		t.Fatalf("extended cost %g, want %g", l.CostUSD, want)
	}
	if want := typ.Cost(70) - typ.Cost(40); math.Abs(delta-want) > 1e-12 {
		t.Fatalf("marginal %g, want %g", delta, want)
	}
	if f.Instances[0].FreeAtSec != 70 || f.Instances[0].BusySec != 70 {
		t.Fatalf("instance state %+v", f.Instances[0])
	}
}

// TestMinBillGranularity: the fleet ledger floors short leases at the
// billing minimum, and extensions only start costing once the lease
// grows past it.
func TestMinBillGranularity(t *testing.T) {
	c := DefaultCatalog().WithMinBill(60)
	it, err := c.ByName("gp.1x")
	if err != nil {
		t.Fatal(err)
	}
	// Sub-minimum runtimes bill the floor; longer ones per second.
	if got, want := it.Cost(0.2), 60*it.PricePerHour/3600; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Cost(0.2) = %g, want %g", got, want)
	}
	if got, want := it.Cost(59.9), 60*it.PricePerHour/3600; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Cost(59.9) = %g, want %g", got, want)
	}
	if got, want := it.Cost(120.5), 121*it.PricePerHour/3600; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Cost(120.5) = %g, want %g", got, want)
	}
	if it.Cost(0) != 0 {
		t.Fatal("zero runtime should still cost nothing")
	}

	f := NewFleet(FleetEntry{Type: it, Count: 1})
	f.Book(0, "a", "sta", 0, 10)
	if got := f.Lease(0, 0).CostUSD; math.Abs(got-it.Cost(60)) > 1e-12 {
		t.Fatalf("short lease billed %g, want the 60 s floor", got)
	}
	// Growing to 30 s stays inside the floor: zero marginal cost.
	if delta := f.Extend(0, "sta2", 20); math.Abs(delta) > 1e-12 {
		t.Fatalf("extension inside the floor billed %g", delta)
	}
	// Growing past the floor bills the excess.
	delta := f.Extend(0, "sta3", 45)
	if want := it.Cost(75) - it.Cost(60); math.Abs(delta-want) > 1e-12 {
		t.Fatalf("past-floor extension billed %g, want %g", delta, want)
	}
	if got := f.TotalCostUSD(); math.Abs(got-it.Cost(75)) > 1e-12 {
		t.Fatalf("ledger total %g, want %g", got, it.Cost(75))
	}
}

// TestFleetProfileAndClone: the capacity profile preserves
// first-appearance type order with counts, and a clone replays every
// typed Acquire tie-break of the original while starting unused.
func TestFleetProfileAndClone(t *testing.T) {
	c := DefaultCatalog()
	gp, err := c.ByName("gp.4x")
	if err != nil {
		t.Fatal(err)
	}
	mem, err := c.ByName("mem.8x")
	if err != nil {
		t.Fatal(err)
	}
	// Interleaved entries: the profile collapses counts but keeps
	// first-appearance order and within-type instance order.
	f := NewFleet(
		FleetEntry{Type: gp, Count: 1},
		FleetEntry{Type: mem, Count: 1},
		FleetEntry{Type: gp, Count: 2},
	)
	prof := f.Profile()
	if len(prof) != 2 || prof[0].Type.Name != "gp.4x" || prof[0].Count != 3 ||
		prof[1].Type.Name != "mem.8x" || prof[1].Count != 1 {
		t.Fatalf("profile = %+v", prof)
	}

	f.Book(0, "a", "synthesis", 0, 100)
	clone := f.Clone()
	if len(clone.Instances) != len(f.Instances) {
		t.Fatalf("clone has %d instances, want %d", len(clone.Instances), len(f.Instances))
	}
	for i, inst := range clone.Instances {
		orig := f.Instances[i]
		if inst.ID != orig.ID || inst.Type.Name != orig.Type.Name {
			t.Fatalf("clone instance %d = %s/%s, want %s/%s",
				i, inst.ID, inst.Type.Name, orig.ID, orig.Type.Name)
		}
		if inst.FreeAtSec != 0 || inst.BusySec != 0 || inst.CostUSD != 0 || inst.Leases != nil {
			t.Fatalf("clone instance %d not pristine: %+v", i, inst)
		}
	}
	// The original's lease survives the cloning untouched.
	if len(f.Instances[0].Leases) != 1 || f.Instances[0].FreeAtSec != 100 {
		t.Fatal("cloning disturbed the original fleet")
	}
	// Same tie-breaks: booking the clone like the (pre-lease) original
	// grants the same instance indices.
	wantIdx, wantStart, err := clone.Acquire("gp.4x", 0)
	if err != nil {
		t.Fatal(err)
	}
	if wantIdx != 0 || wantStart != 0 {
		t.Fatalf("clone Acquire granted %d@%g, want 0@0", wantIdx, wantStart)
	}
}

func TestSnapshotDeepCopiesLeases(t *testing.T) {
	f := testFleet(t)
	f.Book(0, "a", "synthesis", 0, 100)
	f.Book(2, "b", "placement", 50, 200)

	snap := f.Snapshot()
	if len(snap.Instances) != len(f.Instances) {
		t.Fatalf("snapshot has %d instances, want %d", len(snap.Instances), len(f.Instances))
	}
	for i, inst := range snap.Instances {
		orig := f.Instances[i]
		if inst.ID != orig.ID || inst.FreeAtSec != orig.FreeAtSec ||
			inst.BusySec != orig.BusySec || inst.CostUSD != orig.CostUSD ||
			len(inst.Leases) != len(orig.Leases) {
			t.Fatalf("snapshot instance %d = %+v, want %+v", i, inst, orig)
		}
	}
	// Mutating the snapshot leaves the original untouched.
	snap.Book(1, "c", "routing", 0, 300)
	if len(f.Instances[1].Leases) != 0 || f.Instances[1].FreeAtSec != 0 {
		t.Fatal("booking the snapshot disturbed the original fleet")
	}
	// And vice versa.
	f.Book(0, "d", "sta", 100, 10)
	if len(snap.Instances[0].Leases) != 1 {
		t.Fatal("booking the original disturbed the snapshot")
	}
}

// sameFleet fails unless got is want instance for instance: the same
// IDs, types, ledgers, settled carries and leases, in order, and the
// same revocation model.
func sameFleet(t *testing.T, what string, got, want *Fleet) {
	t.Helper()
	if len(got.Instances) != len(want.Instances) || got.Revocation != want.Revocation {
		t.Fatalf("%s: %d instances (revocation %p), want %d (%p)", what,
			len(got.Instances), got.Revocation, len(want.Instances), want.Revocation)
	}
	for i, g := range got.Instances {
		w := want.Instances[i]
		gc, wc := *g, *w
		gc.Leases, wc.Leases = nil, nil
		if !reflect.DeepEqual(gc, wc) || !slices.Equal(g.Leases, w.Leases) {
			t.Fatalf("%s: instance %d = %+v, want %+v", what, i, g, w)
		}
	}
}

// TestSnapshotIntoMatchesSnapshot: SnapshotInto a fleet with more
// instances and leases than the source, and into one with fewer, gives
// exactly what Snapshot gives — settled carries and a revocation model
// included — and booking, extending, releasing or settling the result
// never touches the source.
func TestSnapshotIntoMatchesSnapshot(t *testing.T) {
	c := spotCatalog(t)
	src, err := ParseFleetSpec(c, "gp.4x=1,gp.4x.spot=2,mem.8x=1")
	if err != nil {
		t.Fatal(err)
	}
	src.Revocation = NewRevocationModel(3, UniformSpotHazards(c, 20))
	for i := range src.Instances {
		for j := 0; j < 3+i; j++ {
			src.Book(i, "j"+strconv.Itoa(j), "synthesis", src.Instances[i].FreeAtSec+5, 40)
		}
	}
	src.Settle(60)
	big, err := ParseFleetSpec(c, "gp.8x=3,mem.1x=4")
	if err != nil {
		t.Fatal(err)
	}
	for i := range big.Instances {
		for j := 0; j < 12; j++ {
			big.Book(i, "x", "placement", float64(100*j), 50)
		}
	}
	small, err := ParseFleetSpec(c, "gp.1x=1")
	if err != nil {
		t.Fatal(err)
	}
	small.Book(0, "y", "routing", 0, 10)
	for _, dst := range []*Fleet{big, small, {}, nil} {
		want := src.Snapshot()
		got := src.SnapshotInto(dst)
		if dst != nil && got != dst {
			t.Fatal("SnapshotInto returned a fleet other than dst")
		}
		sameFleet(t, "snapshot", got, want)
		got.Book(0, "z", "sta", got.Instances[0].FreeAtSec, 30)
		got.Extend(0, "sta", 10)
		got.Book(3, "z", "sta", 1000, 30)
		got.ReleaseFrom(100)
		got.Settle(500)
		sameFleet(t, "source after mutating the snapshot", src, want)
	}
}

func TestReleaseFromCancelsFutureLeases(t *testing.T) {
	f := testFleet(t)
	f.Book(0, "a", "synthesis", 0, 100)  // running at t=50: stands
	f.Book(0, "a", "placement", 100, 50) // starts at 100 >= 50: released
	f.Book(1, "b", "synthesis", 50, 100) // starts exactly at 50: released
	f.Book(2, "c", "synthesis", 10, 20)  // finished before 50: stands

	if n := f.ReleaseFrom(50); n != 2 {
		t.Fatalf("released %d leases, want 2", n)
	}
	i0 := f.Instances[0]
	if len(i0.Leases) != 1 || i0.FreeAtSec != 100 || i0.BusySec != 100 {
		t.Fatalf("instance 0 after release: %+v", i0)
	}
	if want := i0.Type.Cost(100); math.Abs(i0.CostUSD-want) > 1e-12 {
		t.Fatalf("instance 0 cost %g, want %g", i0.CostUSD, want)
	}
	i1 := f.Instances[1]
	if len(i1.Leases) != 0 || i1.FreeAtSec != 0 || i1.BusySec != 0 || i1.CostUSD != 0 {
		t.Fatalf("instance 1 after release: %+v", i1)
	}
	i2 := f.Instances[2]
	if len(i2.Leases) != 1 || i2.FreeAtSec != 30 {
		t.Fatalf("instance 2 after release: %+v", i2)
	}
	// Releasing everything returns the fleet to an unused state.
	f.ReleaseFrom(0)
	for i, inst := range f.Instances {
		if len(inst.Leases) != 0 || inst.FreeAtSec != 0 || inst.BusySec != 0 || inst.CostUSD != 0 {
			t.Fatalf("instance %d not pristine after ReleaseFrom(0): %+v", i, inst)
		}
	}
}
