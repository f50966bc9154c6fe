package cloud

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// sameLedger fails unless the settling fleet, with its archive put back
// in front, is the never-settled twin: the same leases in the same
// order and every ledger total equal to the bit.
func sameLedger(t *testing.T, step string, f, twin *Fleet, archive [][]Lease) {
	t.Helper()
	if b, w := math.Float64bits(f.TotalCostUSD()), math.Float64bits(twin.TotalCostUSD()); b != w {
		t.Fatalf("%s: total cost %x, twin %x", step, b, w)
	}
	for i, inst := range f.Instances {
		tw := twin.Instances[i]
		for _, p := range [][2]float64{{inst.CostUSD, tw.CostUSD}, {inst.BusySec, tw.BusySec}, {inst.FreeAtSec, tw.FreeAtSec}} {
			if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
				t.Fatalf("%s: instance %s ledger %v, twin %v", step, inst.ID,
					[]float64{inst.CostUSD, inst.BusySec, inst.FreeAtSec}, []float64{tw.CostUSD, tw.BusySec, tw.FreeAtSec})
			}
		}
		if got := slices.Concat(archive[i], inst.Leases); !slices.Equal(got, tw.Leases) {
			t.Fatalf("%s: instance %s settled+live leases %+v, twin %+v", step, inst.ID, got, tw.Leases)
		}
	}
	full := f.Unsettle(archive)
	for i, inst := range full.Instances {
		tw := twin.Instances[i]
		if !slices.Equal(inst.Leases, tw.Leases) || inst.CostUSD != tw.CostUSD ||
			inst.BusySec != tw.BusySec || inst.FreeAtSec != tw.FreeAtSec || inst.settledCost != 0 {
			t.Fatalf("%s: Unsettle instance %s = %+v, twin %+v", step, inst.ID, inst, tw)
		}
	}
}

// TestSettleMatchesNeverSettledTwin drives seeded random sequences of
// Book, Extend, clock advances, ReleaseFrom, ReleaseWhere, Snapshot and
// Settle on a fleet and on a twin that never settles, with and without
// spot revocations: after every step the two ledgers agree to the bit
// and the settled archive plus the live leases are the twin's leases.
func TestSettleMatchesNeverSettledTwin(t *testing.T) {
	c := spotCatalog(t)
	moved := 0
	for seed := int64(0); seed < 40; seed++ {
		f, err := ParseFleetSpec(c, "gp.4x=1,gp.4x.spot=2,mem.8x=1")
		if err != nil {
			t.Fatal(err)
		}
		if seed%2 == 1 {
			f.Revocation = NewRevocationModel(seed, UniformSpotHazards(c, 20))
		}
		twin := f.Snapshot()
		archive := make([][]Lease, len(f.Instances))
		rng := rand.New(rand.NewSource(seed))
		clock := 0.0
		jobs := 0
		for step := 0; step < 300; step++ {
			idx := rng.Intn(len(f.Instances))
			var name string
			switch op := rng.Intn(9); op {
			case 0, 1, 2:
				start := f.Instances[idx].FreeAtSec
				switch rng.Intn(3) {
				case 0: // zero-length lease exactly at the clock
					start = math.Max(start, clock)
					name = "book-at-clock"
				case 1:
					start = math.Max(start, clock) + float64(rng.Intn(30))
					name = "book-whole"
				default:
					start += rng.Float64() * 40
					name = "book"
				}
				dur := 0.0
				if name != "book-at-clock" {
					dur = rng.Float64() * 300
				}
				job := "j" + strconv.Itoa(jobs)
				jobs++
				li, ti := f.Book(idx, job, "s", start, dur), twin.Book(idx, job, "s", start, dur)
				if f.Lease(idx, li) != twin.Lease(idx, ti) {
					t.Fatalf("seed %d step %d: booked %+v, twin %+v", seed, step, f.Lease(idx, li), twin.Lease(idx, ti))
				}
			case 3:
				name = "extend"
				if len(f.Instances[idx].Leases) == 0 {
					continue
				}
				dur := rng.Float64() * 100
				if a, b := f.Extend(idx, "x", dur), twin.Extend(idx, "x", dur); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("seed %d step %d: extension cost %g, twin %g", seed, step, a, b)
				}
			case 4:
				name = "advance"
				// Half the time land exactly on a lease end.
				if ls := twin.Instances[idx].Leases; len(ls) > 0 && rng.Intn(2) == 0 {
					clock = math.Max(clock, ls[rng.Intn(len(ls))].EndSec)
				} else {
					clock += rng.Float64() * 150
				}
			case 5:
				name = "release-from"
				if a, b := f.ReleaseFrom(clock), twin.ReleaseFrom(clock); a != b {
					t.Fatalf("seed %d step %d: released %d, twin %d", seed, step, a, b)
				}
			case 6:
				name = "release-where"
				odd := func(l Lease) bool { n, _ := strconv.Atoi(l.Job[1:]); return n%2 == 1 }
				if a, b := f.ReleaseWhere(clock, odd), twin.ReleaseWhere(clock, odd); a != b {
					t.Fatalf("seed %d step %d: released %d, twin %d", seed, step, a, b)
				}
			case 7:
				name = "snapshot"
				f, twin = f.Snapshot(), twin.Snapshot()
			default:
				name = "settle"
				for i, ls := range f.Settle(clock) {
					for _, l := range ls {
						if !(l.StartSec < clock && l.EndSec <= clock) {
							t.Fatalf("seed %d step %d: settled %+v at clock %g", seed, step, l, clock)
						}
					}
					moved += len(ls)
					archive[i] = append(archive[i], ls...)
				}
			}
			sameLedger(t, "seed "+strconv.FormatInt(seed, 10)+" step "+strconv.Itoa(step)+" "+name, f, twin, archive)
		}
	}
	if moved == 0 {
		t.Fatal("no lease was ever settled")
	}
}

// TestSettleKeepsZeroLengthLeaseAtClock: a zero-length lease starting
// exactly at tSec is one ReleaseFrom(tSec) would still release, so
// Settle(tSec) leaves it live — and stops the prefix there.
func TestSettleKeepsZeroLengthLeaseAtClock(t *testing.T) {
	f := testFleet(t)
	f.Book(0, "a", "synthesis", 0, 50)
	f.Book(0, "b", "placement", 50, 0)
	f.Book(1, "c", "synthesis", 0, 60) // still running at 50
	got := f.Settle(50)
	if len(got[0]) != 1 || got[0][0].Job != "a" || len(got[1]) != 0 {
		t.Fatalf("settled %+v, want only lease a", got)
	}
	if len(f.Instances[0].Leases) != 1 || f.Instances[0].Leases[0].Job != "b" || len(f.Instances[1].Leases) != 1 {
		t.Fatalf("live after settle: %+v / %+v", f.Instances[0].Leases, f.Instances[1].Leases)
	}
	if f.Settle(50) != nil {
		t.Fatal("settling twice at the same time moved more leases")
	}
	if n := f.ReleaseFrom(50); n != 1 {
		t.Fatalf("released %d, want the zero-length lease", n)
	}
	inst := f.Instances[0]
	if inst.FreeAtSec != 50 || inst.BusySec != 50 || inst.CostUSD != inst.Type.Cost(50) {
		t.Fatalf("ledger after release: %+v", inst)
	}
}
