package route

import (
	"container/heap"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"edacloud/internal/perf"
)

// refPQ is the frontier as a container/heap client: the reference for
// TestFrontierPopsLikeContainerHeap.
type refPQ []pqItem

func (q refPQ) Len() int            { return len(q) }
func (q refPQ) Less(i, j int) bool  { return q[i].est < q[j].est }
func (q refPQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refPQ) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *refPQ) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// The typed heap must pop in container/heap's order, ties included:
// which of two equal-est entries leaves first decides which path A*
// finds, and with it usage counts, rip-up rounds and probe events.
func TestFrontierPopsLikeContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var got frontier
		want := &refPQ{}
		id := 0
		pushBias := 2 + rng.Intn(3) // of 5: grow on average, drain at the end
		for step := 0; step < 20000; step++ {
			if len(got) != want.Len() {
				t.Fatalf("seed %d step %d: lengths %d vs %d", seed, step, len(got), want.Len())
			}
			if len(got) == 0 || rng.Intn(5) < pushBias {
				id++
				// Few distinct est values, as on a unit-cost grid; x, y
				// and cost identify the entry.
				it := pqItem{cost: float64(id), est: float64(rng.Intn(6)), x: int16(id), y: int16(id >> 15)}
				got.push(it)
				heap.Push(want, it)
				continue
			}
			g, w := got.pop(), heap.Pop(want).(pqItem)
			if g != w {
				t.Fatalf("seed %d step %d: popped %+v, container/heap popped %+v", seed, step, g, w)
			}
		}
		for len(got) > 0 {
			if g, w := got.pop(), heap.Pop(want).(pqItem); g != w {
				t.Fatalf("seed %d drain: popped %+v, container/heap popped %+v", seed, g, w)
			}
		}
	}
}

// One scratch reused across three searches must route exactly as three
// fresh scratches do: its first-search sizing, stale distances and
// parents of the earlier searches, and the epoch wrap-around may none
// of them show.
func TestSearchScratchReuse(t *testing.T) {
	newGrid := func() *grid {
		g := &grid{w: 24, h: 20, cap: 2}
		g.usage = make([]int32, g.numEdges())
		g.history = make([]float64, g.numEdges())
		rng := rand.New(rand.NewSource(7))
		for e := range g.usage { // an uneven cost landscape, so paths detour
			g.usage[e] = int32(rng.Intn(4))
			g.history[e] = 1.5 * float64(rng.Intn(3))
		}
		return g
	}
	searches := []connection{
		{sx: 9, sy: 9, tx: 14, ty: 15},
		{sx: 1, sy: 18, tx: 22, ty: 2},
		{sx: 15, sy: 8, tx: 8, ty: 14},
	}
	routeAll := func(scratchFor func() *searchScratch) [][]int32 {
		g := newGrid()
		var paths [][]int32
		for i, c := range searches {
			routeConnection(g, &c, nil, scratchFor())
			if len(c.path) == 0 {
				t.Fatalf("search %d found no path", i)
			}
			paths = append(paths, c.path)
		}
		return paths
	}
	want := routeAll(func() *searchScratch { return &searchScratch{} })

	// Start epochs: a zero scratch, which the first search sizes; then
	// full-size ones that wrap before the second search and before the
	// third.
	for _, start := range []uint32{0, math.MaxUint32 - 1, math.MaxUint32 - 2} {
		shared := &searchScratch{}
		if start != 0 {
			shared.begin(24 * 20)
			shared.epoch = start
			// Cells stamped 1 a full cycle ago with distances nothing
			// can beat: the wrap must wipe them before epoch 1 comes
			// round again.
			for i := range shared.stamp {
				shared.stamp[i] = 1
				shared.dist[i] = -1
			}
		}
		got := routeAll(func() *searchScratch { return shared })
		for i := range want {
			if !slices.Equal(got[i], want[i]) {
				t.Errorf("start epoch %d, search %d: path %v with a reused scratch, %v with a fresh one", start, i, got[i], want[i])
			}
		}
		if start != 0 && shared.epoch > 3 {
			t.Errorf("start epoch %d: epoch %d after three searches, wrap-around not taken", start, shared.epoch)
		}
	}
}

// Bytes allocated per routed connection must not grow with the number
// of grid cells: a search that allocated its distance and parent arrays
// over the whole grid would cost 4x the bytes per connection when the
// gcell is halved (4x the cells), and more per search than the absolute
// bound below.
func TestRouteAllocsIndependentOfGrid(t *testing.T) {
	nl, pl := placedBench(t, "mem_ctrl", 0.25)
	t.Run("instrumented", func(t *testing.T) {
		perConn := func(gcell float64) (bytesPerConn float64, cells int) {
			probe := perf.NewProbe(perf.DefaultProbeConfig())
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, _ := route(nl, pl, probe, gcell, capacityFromDemand, maxIters)
			runtime.ReadMemStats(&after)
			if res.FailedConnections != 0 {
				t.Fatalf("gcell %g: %d failed connections", gcell, res.FailedConnections)
			}
			return float64(after.TotalAlloc-before.TotalAlloc) / float64(res.Connections), res.GridW * res.GridH
		}
		g := 0.5 * pl.RowHeight
		coarse, coarseCells := perConn(g)
		fine, fineCells := perConn(g / 2)
		t.Logf("coarse: %d cells, %.0f B/connection; fine: %d cells, %.0f B/connection", coarseCells, coarse, fineCells, fine)
		if fineCells < 3*coarseCells {
			t.Fatalf("fine grid has %d cells against %d: not the 4x this test is about", fineCells, coarseCells)
		}
		// Paths are about twice as long on the fine grid and are
		// kept, so a factor of two is legitimate; four is a
		// per-search grid fill.
		if fine > 3*coarse {
			t.Errorf("bytes per connection grew %.1fx with 4x the grid cells (%.0f -> %.0f)", fine/coarse, coarse, fine)
		}
		// One whole-grid distance+parent allocation is 12 bytes a cell.
		if limit := 12 * float64(fineCells); fine > limit/2 {
			t.Errorf("%.0f B per connection on a %d-cell grid: more than half of one whole-grid search allocation (%.0f B)", fine, fineCells, limit)
		}
	})
}
