package route

import (
	"testing"

	"edacloud/internal/designs"
	"edacloud/internal/netlist"
	"edacloud/internal/par"
	"edacloud/internal/perf"
	"edacloud/internal/place"
	"edacloud/internal/synth"
	"edacloud/internal/techlib"
)

var lib = techlib.Default14nm()

func placedBench(t *testing.T, name string, scale float64) (*netlist.Netlist, *place.Placement) {
	t.Helper()
	g := designs.MustBenchmark(name, scale)
	res, err := synth.Synthesize(g, lib, synth.Options{})
	if err != nil {
		t.Fatalf("synth %s: %v", name, err)
	}
	pl, _, err := place.Place(res.Netlist, place.Options{})
	if err != nil {
		t.Fatalf("place %s: %v", name, err)
	}
	return res.Netlist, pl
}

func TestRouteBasic(t *testing.T) {
	nl, pl := placedBench(t, "int2float", 0.25)
	res, report, err := Route(nl, pl, Options{})
	if err != nil {
		t.Fatalf("route: %v", err)
	}
	if res.Connections == 0 {
		t.Fatal("no connections built")
	}
	if res.Wirelength <= 0 {
		t.Fatal("no wire routed")
	}
	if res.FailedConnections != 0 {
		t.Fatalf("%d connections failed", res.FailedConnections)
	}
	if report == nil || len(report.Phases) != 3 {
		t.Fatalf("report = %+v", report)
	}
	if res.TileLocalFraction < 0 || res.TileLocalFraction > 1 {
		t.Fatalf("tile-local fraction %g out of range", res.TileLocalFraction)
	}
}

func TestRouteRejectsBadInput(t *testing.T) {
	nl := netlist.New("empty", lib)
	if _, _, err := Route(nl, &place.Placement{}, Options{}); err == nil {
		t.Fatal("empty netlist accepted")
	}
	nl2, pl := placedBench(t, "priority", 0.1)
	bad := &place.Placement{X: pl.X[:1], Y: pl.Y[:1], DieW: pl.DieW, DieH: pl.DieH, RowHeight: pl.RowHeight}
	if _, _, err := Route(nl2, bad, Options{}); err == nil {
		t.Fatal("mismatched placement accepted")
	}
}

func TestRouteWirelengthLowerBound(t *testing.T) {
	// Routed length can never be below the Manhattan distance sum.
	nl, pl := placedBench(t, "priority", 0.2)
	gcell := 0.5 * pl.RowHeight
	g := &grid{w: int(pl.DieW/gcell) + 2, h: int(pl.DieH/gcell) + 2, cap: 16}
	conns := buildConnections(nl, pl, g, gcell)
	manhattan := 0
	for _, c := range conns {
		dx := int(c.sx) - int(c.tx)
		if dx < 0 {
			dx = -dx
		}
		dy := int(c.sy) - int(c.ty)
		if dy < 0 {
			dy = -dy
		}
		manhattan += dx + dy
	}
	res, _, err := Route(nl, pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Wirelength < manhattan {
		t.Fatalf("wirelength %d below Manhattan bound %d", res.Wirelength, manhattan)
	}
}

func TestRouteCongestionNegotiation(t *testing.T) {
	// A tiny capacity forces overflow and rip-up iterations.
	nl, pl := placedBench(t, "int2float", 0.25)
	res, _ := route(nl, pl, nil, 0.5*pl.RowHeight, 1, 6)
	if res.Iterations == 0 {
		t.Fatal("capacity-1 routing needed no negotiation; suspicious")
	}
	// A generous capacity should converge with zero overflow.
	res2, _ := route(nl, pl, nil, 0.5*pl.RowHeight, 64, maxIters)
	if res2.Overflow != 0 {
		t.Fatalf("overflow %d with generous capacity", res2.Overflow)
	}
}

func TestRouteProfileShape(t *testing.T) {
	nl, pl := placedBench(t, "cavlc", 0.4)
	probe := perf.NewProbe(perf.DefaultProbeConfig())
	_, report, err := Route(nl, pl, Options{StageConfig: par.StageConfig{Probe: probe}})
	if err != nil {
		t.Fatal(err)
	}
	total := report.Total()
	if total.Branches == 0 {
		t.Fatal("router recorded no branches")
	}
	// Routing is integer work: no meaningful vector FP.
	if total.FPVector > total.Instrs/100 {
		t.Fatalf("router FP share too high: %d of %d", total.FPVector, total.Instrs)
	}
	// Branch misses must be present (data-dependent search).
	if total.BranchMisses == 0 {
		t.Fatal("no branch misses in maze search")
	}
}

func TestRouteDeterministicWhenSerial(t *testing.T) {
	nl, pl := placedBench(t, "priority", 0.2)
	a, _, err := Route(nl, pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Route(nl, pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Wirelength != b.Wirelength || a.Overflow != b.Overflow || a.Iterations != b.Iterations {
		t.Fatalf("serial routing not deterministic: %+v vs %+v", a, b)
	}
}

func TestGridEdgeIndexingDisjoint(t *testing.T) {
	g := &grid{w: 7, h: 5, cap: 1}
	seen := map[int32]bool{}
	for y := 0; y < g.h; y++ {
		for x := 0; x < g.w-1; x++ {
			e := g.hEdge(x, y)
			if seen[e] {
				t.Fatalf("duplicate h edge %d", e)
			}
			seen[e] = true
		}
	}
	for x := 0; x < g.w; x++ {
		for y := 0; y < g.h-1; y++ {
			e := g.vEdge(x, y)
			if seen[e] {
				t.Fatalf("v edge %d collides", e)
			}
			seen[e] = true
		}
	}
	if len(seen) != g.numEdges() {
		t.Fatalf("edge count %d != numEdges %d", len(seen), g.numEdges())
	}
}

func TestLargerDesignHasMoreBusyTiles(t *testing.T) {
	nlSmall, plSmall := placedBench(t, "priority", 0.15)
	small, _, err := Route(nlSmall, plSmall, Options{})
	if err != nil {
		t.Fatal(err)
	}
	nlBig, plBig := placedBench(t, "mem_ctrl", 0.25)
	big, _, err := Route(nlBig, plBig, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if big.BusyTiles <= small.BusyTiles {
		t.Fatalf("bigger design has %d busy tiles vs %d — Fig. 3 scaling premise broken",
			big.BusyTiles, small.BusyTiles)
	}
}

// Property: after routing, per-edge usage equals the number of
// connection paths crossing the edge (flow conservation of the
// negotiated-congestion bookkeeping).
func TestUsageConservation(t *testing.T) {
	nl, pl := placedBench(t, "cavlc", 0.3)
	gcell := 0.5 * pl.RowHeight
	g := &grid{w: int(pl.DieW/gcell) + 2, h: int(pl.DieH/gcell) + 2, cap: 1 << 20}
	g.usage = make([]int32, g.numEdges())
	g.history = make([]float64, g.numEdges())
	conns := buildConnections(nl, pl, g, gcell)
	scratch := &searchScratch{}
	for i := range conns {
		routeConnection(g, &conns[i], nil, scratch)
	}
	counted := make([]int32, g.numEdges())
	total := 0
	for i := range conns {
		for _, e := range conns[i].path {
			counted[e]++
			total++
		}
	}
	for e := range counted {
		if counted[e] != g.usage[e] {
			t.Fatalf("edge %d: counted %d, usage %d", e, counted[e], g.usage[e])
		}
	}
	// Unrouting everything must restore a clean grid.
	for i := range conns {
		g.unroute(&conns[i])
	}
	for e, u := range g.usage {
		if u != 0 {
			t.Fatalf("edge %d usage %d after full unroute", e, u)
		}
	}
	if total == 0 {
		t.Fatal("no paths routed")
	}
}
