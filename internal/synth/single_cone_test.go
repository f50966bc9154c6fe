package synth

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edacloud/internal/designs"
	"edacloud/internal/par"
	"edacloud/internal/perf"
)

var updateSingleCone = flag.Bool("update", false, "rewrite testdata/single_cone.golden")

// TestSingleConeGolden pins what every pass reports on graphs whose
// outputs partition into one cone: per pass of every standard recipe,
// the result's fingerprint and AND count, the phase's simulated
// instructions (and a hash of all its counters), the instructions
// retired inside parallel regions and the phase's chunk count. A
// one-partition pass must charge the probe no merge replay, so any
// drift in these numbers is a change in what a single-cone pass costs.
// Workers 1, 2 and 8 must all give the file's contents.
func TestSingleConeGolden(t *testing.T) {
	inputs := []struct {
		design string
		scale  float64
	}{
		{"voter", 0.05}, {"voter", 0.25},
		{"dec", 0.05}, {"adder", 0.05}, {"cavlc", 0.05},
		{"priority", 0.12}, {"sqrt", 0.12},
	}
	report := func(workers int) string {
		var sb strings.Builder
		for _, in := range inputs {
			g := designs.MustBenchmark(in.design, in.scale)
			if parts := g.PartitionCones(PartitionGrain).NumParts(); parts != 1 {
				t.Fatalf("precondition: %s@%g spans %d partitions, want 1", in.design, in.scale, parts)
			}
			for _, r := range StandardRecipes {
				probe := perf.NewProbe(perf.DefaultProbeConfig())
				cur := g
				for i, p := range r.Passes {
					next, stats, err := runPass(cur, p, probe, par.Fixed(workers), new(runScratch))
					if err != nil {
						t.Fatalf("%s@%g %s pass %d: %v", in.design, in.scale, r.Name, i, err)
					}
					ph := probe.TakePhaseMeasured(p.String(), stats.parallelInstrs, stats.chunks)
					h := fnv.New64a()
					fmt.Fprintf(h, "%+v", ph.C)
					fmt.Fprintf(&sb, "%s@%g %s %d %v fp=%016x ands=%d instrs=%d par=%d chunks=%d counters=%016x\n",
						in.design, in.scale, r.Name, i, p, next.Fingerprint(), next.NumAnds(),
						ph.C.Instrs, stats.parallelInstrs, ph.Chunks, h.Sum64())
					cur = next
				}
			}
		}
		return sb.String()
	}
	path := filepath.Join("testdata", "single_cone.golden")
	if *updateSingleCone {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(report(1)), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 8} {
		if got := report(w); got != string(want) {
			gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := range min(len(gl), len(wl)) {
				if gl[i] != wl[i] {
					t.Fatalf("workers=%d: line %d\n got %s\nwant %s", w, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("workers=%d: %d lines, want %d", w, len(gl), len(wl))
		}
	}
}
