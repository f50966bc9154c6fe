package synth

import (
	"fmt"
	"hash/fnv"
	"path/filepath"
	"strings"
	"testing"

	"edacloud/internal/designs"
	"edacloud/internal/par"
	"edacloud/internal/perf"
	"edacloud/internal/techlib"
)

// TestLargeSynthesisGolden pins resyn2 plus the mapper on the three
// benchmark inputs of 78 to 141 k ANDs, the only graphs large enough to
// reach the run's storage at full size (hundreds of partitions, graphs
// that outgrow every earlier one). Per pass it records the result's
// fingerprint and AND count, the phase's simulated instructions, the
// instructions retired in parallel regions, the chunk count and a hash
// of all the phase's counters; then the netlist's fingerprint, its
// cell count and the mapping phase's instructions and counters. The
// passes share one runScratch exactly as optimize does, so a change in
// how the run lends its storage shows here as well as a change in
// what a pass computes or charges.
func TestLargeSynthesisGolden(t *testing.T) {
	inputs := []struct {
		design string
		scale  float64
	}{{"adder", 100}, {"priority", 40}, {"bar", 10}}
	lib := techlib.Default14nm()
	recipe, err := RecipeByName("resyn2")
	if err != nil {
		t.Fatal(err)
	}
	counterHash := func(c perf.Counters) uint64 {
		h := fnv.New64a()
		fmt.Fprintf(h, "%+v", c)
		return h.Sum64()
	}
	var sb strings.Builder
	for _, in := range inputs {
		g := designs.MustBenchmark(in.design, in.scale)
		probe := perf.NewProbe(perf.DefaultProbeConfig())
		pool := par.Fixed(0)
		rs := new(runScratch)
		// optimize's loop, with each pass's result fingerprinted before
		// the pass after next overwrites it.
		rs.reserve(g, recipe.Passes)
		cur := g
		for i, p := range recipe.Passes {
			rs.dst = nil
			if i < len(recipe.Passes)-1 {
				rs.dst = rs.passes[i%2]
			}
			next, stats, err := runPass(cur, p, probe, pool, rs)
			if err != nil {
				t.Fatalf("%s.x%g pass %d: %v", in.design, in.scale, i, err)
			}
			ph := probe.TakePhaseMeasured(p.String(), stats.parallelInstrs, stats.chunks)
			fmt.Fprintf(&sb, "%s.x%g %d %v fp=%016x ands=%d instrs=%d par=%d chunks=%d counters=%016x\n",
				in.design, in.scale, i, p, next.Fingerprint(), next.NumAnds(),
				ph.C.Instrs, stats.parallelInstrs, ph.Chunks, counterHash(ph.C))
			cur = next
		}
		rs.releaseForMapping()
		nl, err := mapToCells(cur, lib, false, probe, pool, rs)
		if err != nil {
			t.Fatalf("%s.x%g map: %v", in.design, in.scale, err)
		}
		ph := probe.TakePhase("map", 0.60, cur.NumAnds()/64+1)
		fmt.Fprintf(&sb, "%s.x%g map netlist=%016x cells=%d instrs=%d counters=%016x\n",
			in.design, in.scale, nl.Fingerprint(), len(nl.Cells), ph.C.Instrs, counterHash(ph.C))
	}
	path := filepath.Join("testdata", "large_synthesis.golden")
	if *updateGolden {
		writeGolden(t, path, sb.String())
		return
	}
	checkGolden(t, path, "resyn2", sb.String())
}
