package route

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edacloud/internal/perf"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/route_instrumented.golden")

// TestInstrumentedRouteGolden pins everything an instrumented routing
// run reports — the Result and every phase's simulated counters — for
// three designs, two of which negotiate congestion. Host-side data
// structures of the router and the probe may change freely; this file
// may not.
func TestInstrumentedRouteGolden(t *testing.T) {
	cases := []struct {
		design          string
		scale           float64
		capacity, iters int
	}{
		{"int2float", 0.25, capacityFromDemand, maxIters},
		{"mem_ctrl", 0.25, capacityFromDemand, maxIters},
		{"priority", 0.2, 2, 4}, // rip-up rounds > 0
	}
	var sb strings.Builder
	for _, tc := range cases {
		nl, pl := placedBench(t, tc.design, tc.scale)
		res, report := route(nl, pl, perf.NewProbe(perf.DefaultProbeConfig()), 0.5*pl.RowHeight, tc.capacity, tc.iters)
		h := fnv.New64a()
		fmt.Fprintf(h, "%+v\n", *res)
		for _, ph := range report.Phases {
			fmt.Fprintf(h, "%s %+v %v %d\n", ph.Name, ph.C, ph.ParallelFraction, ph.Chunks)
		}
		tot := report.Total()
		fmt.Fprintf(&sb, "%s@%g conns=%d wl=%d overflow=%d iters=%d instrs=%d l1miss=%d llcmiss=%d brmiss=%d hash=%016x\n",
			tc.design, tc.scale, res.Connections, res.Wirelength, res.Overflow, res.Iterations,
			tot.Instrs, tot.L1Misses, tot.LLCMisses, tot.BranchMisses, h.Sum64())
		if tc.capacity != capacityFromDemand && res.Iterations == 0 {
			t.Errorf("%s: constrained capacity needed no rip-up round; the golden no longer covers negotiation", tc.design)
		}
	}
	path := filepath.Join("testdata", "route_instrumented.golden")
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
		t.Errorf("instrumented route golden changed:\n got:\n%s want:\n%s", got, want)
	}
}
