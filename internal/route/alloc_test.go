package route

import (
	"runtime"
	"testing"
)

// TestRouteAllocBudget pins the call-owned working storage. One routing
// run allocates its grid, connections and search scratch once, and each
// connection one path of exactly its length the first time it routes;
// rip-up and refinement reroute into that storage. mem_ctrl@0.25
// measures about 108 bytes and 1.03 mallocs per connection, and
// priority@0.2 at capacity 2, whose four rip-up rounds reroute the same
// connections again and again, 137 bytes and 1.31 mallocs; each must
// stay within a quarter above that. Fresh sink and tree lists per net,
// an unsized connection list and a path grown by append on every search
// took them to 344 bytes and 7.4 mallocs, and 385 bytes and 12.9
// mallocs. The runs are uninstrumented, so the probe's event batches do
// not count.
func TestRouteAllocBudget(t *testing.T) {
	cases := []struct {
		design               string
		scale                float64
		capacity, iters      int
		maxBytes, maxMallocs float64
	}{
		{"mem_ctrl", 0.25, capacityFromDemand, maxIters, 135, 1.29},
		{"priority", 0.2, 2, 4, 171, 1.64},
	}
	for _, tc := range cases {
		nl, pl := placedBench(t, tc.design, tc.scale)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, _ := route(nl, pl, nil, 0.5*pl.RowHeight, tc.capacity, tc.iters)
		runtime.ReadMemStats(&after)
		if tc.capacity != capacityFromDemand && res.Iterations == 0 {
			t.Fatalf("%s: constrained capacity needed no rip-up round", tc.design)
		}
		conns := float64(res.Connections)
		bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / conns
		mallocsPer := float64(after.Mallocs-before.Mallocs) / conns
		t.Logf("%s@%g (%d connections, %d rip-up rounds): %.0f bytes and %.3f mallocs per connection",
			tc.design, tc.scale, res.Connections, res.Iterations, bytesPer, mallocsPer)
		if bytesPer > tc.maxBytes {
			t.Errorf("%s: %.0f bytes per connection, budget %g", tc.design, bytesPer, tc.maxBytes)
		}
		if mallocsPer > tc.maxMallocs {
			t.Errorf("%s: %.3f mallocs per connection, budget %g", tc.design, mallocsPer, tc.maxMallocs)
		}
	}
}
