package synth

import (
	"bytes"
	"reflect"
	"testing"

	"edacloud/internal/aig"
	"edacloud/internal/designs"
	"edacloud/internal/netlist"
	"edacloud/internal/par"
	"edacloud/internal/perf"
	"edacloud/internal/techlib"
)

// TestCutEnumDeterministicAcrossWorkers: the level-parallel cut
// enumeration must produce exactly the cut lists of a 1-worker run —
// and, because probe shards are statically assigned, exactly the same
// simulated counters — at 1, 2 and 8 workers.
func TestCutEnumDeterministicAcrossWorkers(t *testing.T) {
	g := designs.MustBenchmark("cavlc", 0.25)
	run := func(workers int) ([][]Cut, perf.Counters) {
		probe := perf.NewProbe(perf.DefaultProbeConfig())
		ce := newCutEnum(g, 3, 8, probe, par.Fixed(workers), new(runScratch))
		return ce.cuts, probe.Counters()
	}
	wantCuts, wantCounters := run(1)
	for _, w := range []int{2, 8} {
		cuts, counters := run(w)
		if !reflect.DeepEqual(cuts, wantCuts) {
			t.Fatalf("workers=%d: cut lists differ from serial", w)
		}
		if counters != wantCounters {
			t.Fatalf("workers=%d: counters %+v, want %+v", w, counters, wantCounters)
		}
	}
}

// TestSynthesizeDeterministicAcrossWorkers: the full synthesis flow
// (recipe passes + mapping over parallel cut enumeration) must emit an
// identical netlist for every worker count.
func TestSynthesizeDeterministicAcrossWorkers(t *testing.T) {
	lib := techlib.Default14nm()
	g := designs.MustBenchmark("int2float", 0.5)
	recipe, err := RecipeByName("resyn")
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *netlist.Netlist {
		res, err := Synthesize(g.Clone(), lib, Options{Recipe: recipe, StageConfig: par.StageConfig{Workers: workers}})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res.Netlist
	}
	want := run(1)
	for _, w := range []int{2, 8} {
		if got := run(w); !reflect.DeepEqual(got, want) {
			gs, ws := got.Stats(), want.Stats()
			t.Fatalf("workers=%d: netlist differs from serial (%+v vs %+v)", w, gs, ws)
		}
	}
}

// TestPassesDeterministicAcrossWorkers: the cone-parallel
// rewrite/refactor/balance must emit bit-identical graphs — and,
// because partitions are statically assigned to probe shards,
// identical simulated counters — at 1, 2 and 8 workers. Each design is
// large enough to split into several partitions, so the partitioned
// path (private shard strash tables + ordered merge) is what's under
// test; jpeg at 0.025 is the scale the root benchmarks run it at.
func TestPassesDeterministicAcrossWorkers(t *testing.T) {
	for _, tc := range []struct {
		design   string
		scale    float64
		minParts int
	}{
		{"ibex", 0.03, 2},
		{"jpeg", 0.025, 4},
	} {
		g := designs.MustEvalDesign(tc.design, tc.scale)
		if parts := g.PartitionCones(PartitionGrain).NumParts(); parts < tc.minParts {
			t.Fatalf("precondition: %s@%g spans %d partitions, want >= %d", tc.design, tc.scale, parts, tc.minParts)
		}
		for _, pass := range []PassKind{PassBalance, PassRewrite, PassRefactor} {
			run := func(workers int) ([]byte, perf.Counters) {
				probe := perf.NewProbe(perf.DefaultProbeConfig())
				ng, err := RunPass(g, pass, probe, workers)
				if err != nil {
					t.Fatalf("%s %v workers=%d: %v", tc.design, pass, workers, err)
				}
				if !aig.SimEquiv(g, ng, 321, 12) {
					t.Fatalf("%s %v workers=%d: changed function", tc.design, pass, workers)
				}
				var buf bytes.Buffer
				if err := ng.WriteASCII(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes(), probe.Counters()
			}
			wantGraph, wantCounters := run(1)
			for _, w := range []int{2, 8} {
				gotGraph, gotCounters := run(w)
				if !bytes.Equal(gotGraph, wantGraph) {
					t.Fatalf("%s %v: workers=%d graph differs from serial", tc.design, pass, w)
				}
				if gotCounters != wantCounters {
					t.Fatalf("%s %v: workers=%d counters %+v, want %+v", tc.design, pass, w, gotCounters, wantCounters)
				}
			}
		}
	}
}
