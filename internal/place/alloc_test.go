package place

import (
	"runtime"
	"testing"

	"edacloud/internal/par"
)

// TestPlaceAllocBudget pins the call-owned working storage: one Place
// of mem_ctrl@0.25 on two workers measures about 259 bytes and 0.37
// mallocs per cell, and must stay within a quarter above that. The
// mallocs left are the parallel matVec regions' own. CG vectors made
// per solve, anchored right-hand sides made per re-solve, spreading
// targets and one member list per bin made per round, and an edge list
// grown by append took the call to 743 bytes and 1.15 mallocs per cell.
// The run is uninstrumented, so the probe's event batches, which a
// helper goroutine recycles at its own pace, do not count.
func TestPlaceAllocBudget(t *testing.T) {
	const (
		maxBytesPerCell   = 324
		maxMallocsPerCell = 0.46
	)
	nl := mappedBench(t, "mem_ctrl", 0.25)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, _, err := Place(nl, Options{StageConfig: par.StageConfig{Workers: 2}})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	cells := float64(nl.NumCells())
	bytesPerCell := float64(after.TotalAlloc-before.TotalAlloc) / cells
	mallocsPerCell := float64(after.Mallocs-before.Mallocs) / cells
	t.Logf("mem_ctrl@0.25 (%d cells): %.0f bytes and %.3f mallocs per cell", nl.NumCells(), bytesPerCell, mallocsPerCell)
	if bytesPerCell > maxBytesPerCell {
		t.Errorf("%.0f bytes per cell, budget %d", bytesPerCell, maxBytesPerCell)
	}
	if mallocsPerCell > maxMallocsPerCell {
		t.Errorf("%.3f mallocs per cell, budget %g", mallocsPerCell, maxMallocsPerCell)
	}
}
