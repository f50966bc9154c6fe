package synth

import (
	"bytes"
	"reflect"
	"testing"
	"unsafe"

	"edacloud/internal/aig"
	"edacloud/internal/designs"
	"edacloud/internal/par"
	"edacloud/internal/perf"
	"edacloud/internal/techlib"
)

// TestMapperSizesNetlistOnce: the mapper plans its cover before it
// emits, so the netlist it returns was reserved at its final size —
// its cell, net and port arrays and the pin array backing every cell's
// inputs all have cap == len — and each cell owns exactly its pins.
func TestMapperSizesNetlistOnce(t *testing.T) {
	lib := techlib.Default14nm()
	for _, name := range []string{"adder", "priority", "bar", "dec"} {
		g := designs.MustBenchmark(name, 0.5)
		for _, rname := range []string{"raw", "resyn2", "deep"} {
			recipe, err := RecipeByName(rname)
			if err != nil {
				t.Fatal(err)
			}
			for _, registered := range []bool{false, true} {
				res, err := Synthesize(g, lib, Options{Recipe: recipe, RegisterOutputs: registered})
				if err != nil {
					t.Fatalf("%s/%s/registered=%v: %v", name, rname, registered, err)
				}
				nl := res.Netlist
				if err := nl.Check(); err != nil {
					t.Fatalf("%s/%s/registered=%v: %v", name, rname, registered, err)
				}
				pins := reflect.ValueOf(nl).Elem().FieldByName("pins")
				if !pins.IsValid() {
					t.Fatal("netlist.Netlist has no pins field")
				}
				for _, a := range []struct {
					what     string
					len, cap int
				}{
					{"Cells", len(nl.Cells), cap(nl.Cells)},
					{"Nets", len(nl.Nets), cap(nl.Nets)},
					{"PIs", len(nl.PIs), cap(nl.PIs)},
					{"POs", len(nl.POs), cap(nl.POs)},
					{"pins", pins.Len(), pins.Cap()},
				} {
					if a.len != a.cap {
						t.Errorf("%s/%s/registered=%v: %s len %d, cap %d", name, rname, registered, a.what, a.len, a.cap)
					}
				}
				total := 0
				for i := range nl.Cells {
					c := &nl.Cells[i]
					total += len(c.Ins)
					if cap(c.Ins) != len(c.Ins) {
						t.Fatalf("%s/%s/registered=%v: cell %s has %d pins, cap %d", name, rname, registered, c.Name, len(c.Ins), cap(c.Ins))
					}
				}
				if total != pins.Len() {
					t.Errorf("%s/%s/registered=%v: cells hold %d pins, backing %d", name, rname, registered, total, pins.Len())
				}
			}
		}
	}
}

// TestNodeImplPacksInto24Bytes: the mapper keeps a record per variable
// and polarity, and refers to the matched cut by its offset in the
// node's cut list instead of copying the cut into it.
func TestNodeImplPacksInto24Bytes(t *testing.T) {
	if size := unsafe.Sizeof(nodeImpl{}); size > 24 {
		t.Fatalf("nodeImpl is %d bytes, want at most 24", size)
	}
}

// TestPassResultReuseMatchesFresh: Synthesize sweeps every intermediate
// pass result into one of the run's two recycled pass graphs, which
// must change nothing. At 1, 2 and 8 workers it gives the optimized
// graph (fingerprint and AIGER text), the netlist and the probe
// counters of chaining RunPass — a fresh graph and scratch per pass —
// and MapToCells, and it leaves its input graph untouched.
func TestPassResultReuseMatchesFresh(t *testing.T) {
	lib := techlib.Default14nm()
	recipe, err := RecipeByName("resyn2")
	if err != nil {
		t.Fatal(err)
	}
	aiger := func(g *aig.Graph) string {
		var buf bytes.Buffer
		if err := g.WriteASCII(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	for _, d := range []struct {
		name  string
		scale float64
	}{{"int2float", 0.5}, {"priority", 1}, {"adder", 2}} {
		g := designs.MustBenchmark(d.name, d.scale)
		inFP := g.Fingerprint()

		probe := perf.NewProbe(perf.DefaultProbeConfig())
		want := g
		for _, p := range recipe.Passes {
			if want, err = RunPass(want, p, probe, 1); err != nil {
				t.Fatal(err)
			}
		}
		wantNL, err := MapToCells(want, lib, false, probe)
		if err != nil {
			t.Fatal(err)
		}
		wantCounters := probe.Counters()

		for _, w := range []int{1, 2, 8} {
			probe := perf.NewProbe(perf.DefaultProbeConfig())
			res, err := Synthesize(g, lib, Options{Recipe: recipe, StageConfig: par.StageConfig{Workers: w, Probe: probe}})
			if err != nil {
				t.Fatal(err)
			}
			if res.Optimized.Fingerprint() != want.Fingerprint() || aiger(res.Optimized) != aiger(want) {
				t.Fatalf("%s workers=%d: optimized graph differs from the fresh chain", d.name, w)
			}
			if res.Netlist.Fingerprint() != wantNL.Fingerprint() {
				t.Fatalf("%s workers=%d: netlist differs from the fresh chain", d.name, w)
			}
			if c := probe.Counters(); c != wantCounters {
				t.Fatalf("%s workers=%d: counters %+v, want %+v", d.name, w, c, wantCounters)
			}
			if g.Fingerprint() != inFP {
				t.Fatalf("%s workers=%d: Synthesize changed its input graph", d.name, w)
			}
		}
	}
}
