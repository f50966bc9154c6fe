package place

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edacloud/internal/par"
	"edacloud/internal/perf"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/place_instrumented.golden")

// TestInstrumentedPlaceGolden pins everything an instrumented placement
// reports — the Placement's fingerprint and every phase's simulated
// counters, parallel fraction and chunks — for three designs. Host-side
// data structures of the placer and the probe may change freely; this
// file may not.
func TestInstrumentedPlaceGolden(t *testing.T) {
	cases := []struct {
		design string
		scale  float64
	}{
		{"int2float", 0.25},
		{"mem_ctrl", 0.25},
		{"priority", 0.2},
	}
	var sb strings.Builder
	moved := false
	for _, tc := range cases {
		nl := mappedBench(t, tc.design, tc.scale)
		pl, report, err := Place(nl, Options{StageConfig: par.StageConfig{Probe: perf.NewProbe(perf.DefaultProbeConfig())}})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "%s@%g cells=%d hpwl=%v global=%v overflow=%v fingerprint=%016x\n",
			tc.design, tc.scale, nl.NumCells(), pl.HPWL, pl.HPWLGlobal, pl.Overflow, pl.Fingerprint())
		for _, ph := range report.Phases {
			fmt.Fprintf(&sb, "  %s pf=%v chunks=%d %+v\n", ph.Name, ph.ParallelFraction, ph.Chunks, ph.C)
		}
		// Only spreading stores in its phase: one store per cell per
		// round to bin the cell, and one per cell it moves.
		if report.Phases[1].C.Stores > uint64(spreadIters*nl.NumCells()) {
			moved = true
		}
	}
	if !moved {
		t.Error("no spreading round moved a cell; the golden no longer covers the bins' member order")
	}
	path := filepath.Join("testdata", "place_instrumented.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update at a known-good commit)", err)
	}
	if got := sb.String(); got != string(want) {
		t.Errorf("instrumented place golden changed:\n got:\n%s want:\n%s", got, want)
	}
}
