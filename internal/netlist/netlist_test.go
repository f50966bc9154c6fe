package netlist

import (
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"edacloud/internal/techlib"
)

var lib = techlib.Default14nm()

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// buildSmall constructs: PO = NAND2(AND2(a,b), c) with a DFF on input c.
func buildSmall(t *testing.T) *Netlist {
	t.Helper()
	n := New("small", lib)
	a := n.AddPI("a")
	b := n.AddPI("b")
	c := n.AddPI("c")
	clk := n.AddPI("clk")

	qNet := n.AddNet()
	n.MustAddCell(lib.MustCell("DFF_X1"), []NetID{c, clk}, qNet)

	andNet := n.AddNet()
	n.MustAddCell(lib.MustCell("AND2_X1"), []NetID{a, b}, andNet)

	outNet := n.AddNet()
	n.MustAddCell(lib.MustCell("NAND2_X1"), []NetID{andNet, qNet}, outNet)

	n.AddPO("f", outNet)
	return n
}

func TestBuildAndCheck(t *testing.T) {
	n := buildSmall(t)
	if err := n.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if n.NumCells() != 3 || n.NumSeq() != 1 {
		t.Fatalf("cells=%d seq=%d", n.NumCells(), n.NumSeq())
	}
	if n.Area() <= 0 {
		t.Fatal("non-positive area")
	}
	s := n.Stats()
	if s.PIs != 4 || s.POs != 1 || s.Levels != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if !strings.Contains(s.String(), "cells=3") {
		t.Fatalf("stats string: %s", s)
	}
}

func TestAddCellRejectsBadPinCount(t *testing.T) {
	n := New("bad", lib)
	a := n.AddPI("a")
	if _, err := n.AddCell(lib.MustCell("NAND2_X1"), []NetID{a}, n.AddNet()); err == nil {
		t.Fatal("expected pin-count error")
	}
}

// TestAddCellRejectsDoubleDriver: a refused cell — a second driver on a
// driven net, a driver on a PI net, a connection to a net that does not
// exist — leaves the netlist exactly as it was: no cell, no sink, no
// driver, and Check still holds.
func TestAddCellRejectsDoubleDriver(t *testing.T) {
	inv := lib.MustCell("INV_X1")
	nand := lib.MustCell("NAND2_X1")
	for _, tc := range []struct {
		name string
		typ  *techlib.Cell
		ins  func(a, o NetID) []NetID
		out  func(a, o NetID) NetID
	}{
		{"double driver", inv, func(a, o NetID) []NetID { return []NetID{a} }, func(a, o NetID) NetID { return o }},
		{"PI driver", inv, func(a, o NetID) []NetID { return []NetID{o} }, func(a, o NetID) NetID { return a }},
		{"double driver after a good pin", nand, func(a, o NetID) []NetID { return []NetID{a, o} }, func(a, o NetID) NetID { return o }},
		{"input out of range", nand, func(a, o NetID) []NetID { return []NetID{a, o + 5} }, func(a, o NetID) NetID { return NoNet }},
		{"negative input", inv, func(a, o NetID) []NetID { return []NetID{-7} }, func(a, o NetID) NetID { return NoNet }},
		{"output out of range", inv, func(a, o NetID) []NetID { return []NetID{a} }, func(a, o NetID) NetID { return o + 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := New("dd", lib)
			a := n.AddPI("a")
			o := n.AddNet()
			n.MustAddCell(inv, []NetID{a}, o)
			n.AddPO("y", o)
			fp, cells := n.Fingerprint(), n.NumCells()
			sinks := []int{len(n.Sinks(a)), len(n.Sinks(o))}
			if _, err := n.AddCell(tc.typ, tc.ins(a, o), tc.out(a, o)); err == nil {
				t.Fatal("AddCell accepted the cell")
			}
			if n.NumCells() != cells || len(n.Sinks(a)) != sinks[0] || len(n.Sinks(o)) != sinks[1] {
				t.Fatalf("refusal changed the netlist: %d cells (was %d), sinks %d/%d (were %v)",
					n.NumCells(), cells, len(n.Sinks(a)), len(n.Sinks(o)), sinks)
			}
			if n.Fingerprint() != fp {
				t.Fatal("refusal changed the fingerprint")
			}
			if err := n.Check(); err != nil {
				t.Fatalf("Check after a refusal: %v", err)
			}
		})
	}
}

func TestMustAddCellPanics(t *testing.T) {
	n := New("panic", lib)
	a := n.AddPI("a")
	defer func() {
		if recover() == nil {
			t.Fatal("MustAddCell did not panic")
		}
	}()
	n.MustAddCell(lib.MustCell("NAND2_X1"), []NetID{a}, NoNet)
}

func TestTopoOrderRespectsDependencies(t *testing.T) {
	n := buildSmall(t)
	order, err := n.TopoCells()
	if err != nil {
		t.Fatalf("TopoCells: %v", err)
	}
	pos := make(map[CellID]int)
	for i, id := range order {
		pos[id] = i
	}
	// u_and (id 1) must precede u_nand (id 2).
	if pos[1] > pos[2] {
		t.Fatalf("AND after NAND in topo order: %v", order)
	}
	if len(order) != 3 {
		t.Fatalf("order misses cells: %v", order)
	}
}

func TestCombinationalCycleDetected(t *testing.T) {
	n := New("cyc", lib)
	a := n.AddPI("a")
	n1 := n.AddNet()
	n2 := n.AddNet()
	n.MustAddCell(lib.MustCell("NAND2_X1"), []NetID{a, n2}, n1)
	n.MustAddCell(lib.MustCell("NAND2_X1"), []NetID{n1, a}, n2)
	if _, err := n.TopoCells(); err == nil {
		t.Fatal("combinational cycle not detected")
	}
	if err := n.Check(); err == nil {
		t.Fatal("Check accepted cyclic netlist")
	}
}

func TestSequentialLoopAllowed(t *testing.T) {
	// DFF feedback: q -> inv -> d of same DFF. Legal.
	n := New("seqloop", lib)
	clk := n.AddPI("clk")
	q := n.AddNet()
	d := n.AddNet()
	n.MustAddCell(lib.MustCell("DFF_X1"), []NetID{d, clk}, q)
	n.MustAddCell(lib.MustCell("INV_X1"), []NetID{q}, d)
	n.AddPO("q", q)
	if err := n.Check(); err != nil {
		t.Fatalf("registered loop rejected: %v", err)
	}
}

func TestUndrivenNetDetected(t *testing.T) {
	n := New("undriven", lib)
	float := n.AddNet()
	n.MustAddCell(lib.MustCell("INV_X1"), []NetID{float}, NoNet)
	if err := n.Check(); err == nil {
		t.Fatal("undriven net with sink not detected")
	}
}

func TestLevelsAndFanout(t *testing.T) {
	n := buildSmall(t)
	lv, err := n.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if lv[0] != 0 { // DFF
		t.Fatalf("DFF level = %d", lv[0])
	}
	if lv[1] != 0 || lv[2] != 1 {
		t.Fatalf("levels = %v", lv)
	}
	fo := n.FanoutCounts()
	if fo[2] != 1 { // NAND drives PO
		t.Fatalf("fanout(nand) = %d", fo[2])
	}
}

func TestStarGraphShape(t *testing.T) {
	n := buildSmall(t)
	g := n.StarGraph()
	wantNodes := 3 + 4 + 1
	if g.NumNodes != wantNodes {
		t.Fatalf("NumNodes = %d, want %d", g.NumNodes, wantNodes)
	}
	// Edges: a->and, b->and, c->ff, clk->ff, q->nand, and->nand, nand->PO = 7.
	if g.NumEdges() != 7 {
		t.Fatalf("NumEdges = %d, want 7", g.NumEdges())
	}
	for u := 0; u < g.NumNodes; u++ {
		if len(g.Features[u]) != FeatureDim {
			t.Fatalf("node %d: feature width %d", u, len(g.Features[u]))
		}
		for _, s := range g.Successors(u) {
			if s < 0 || int(s) >= g.NumNodes {
				t.Fatalf("edge target out of range: %d", s)
			}
		}
	}
	// PI nodes flagged.
	if g.Features[3][0] != 1 {
		t.Fatal("PI feature flag missing")
	}
	// PO node flagged (last node).
	if g.Features[wantNodes-1][1] != 1 {
		t.Fatal("PO feature flag missing")
	}
	// Sequential cell flagged (cell 0 is the DFF).
	if g.Features[0][2] != 1 {
		t.Fatal("seq feature flag missing")
	}
}

func TestStarGraphEdgeConsistency(t *testing.T) {
	n := buildSmall(t)
	g := n.StarGraph()
	if g.Start[0] != 0 || int(g.Start[g.NumNodes]) != len(g.Succ) {
		t.Fatal("CSR boundaries wrong")
	}
}

func TestQuickRandomNetlistInvariants(t *testing.T) {
	gates := []*techlib.Cell{
		lib.MustCell("INV_X1"), lib.MustCell("NAND2_X1"),
		lib.MustCell("NOR2_X1"), lib.MustCell("AOI21_X1"),
	}
	f := func(seed int64) bool {
		rng := newRand(seed)
		n := New("rand", lib)
		nets := []NetID{}
		for i := 0; i < 4; i++ {
			nets = append(nets, n.AddPI(""))
		}
		for i := 0; i < 30; i++ {
			typ := gates[rng.Intn(len(gates))]
			ins := make([]NetID, typ.NumInputs())
			for p := range ins {
				ins[p] = nets[rng.Intn(len(nets))]
			}
			out := n.AddNet()
			n.MustAddCell(typ, ins, out)
			nets = append(nets, out)
		}
		n.AddPO("f", nets[len(nets)-1])
		if n.Check() != nil {
			return false
		}
		g := n.StarGraph()
		// Star model: edge count equals total sink pins + POs.
		sinks := 0
		for i := range n.Nets {
			if n.Nets[i].Driver != NoCell || n.Nets[i].DriverPI >= 0 {
				sinks += len(n.Sinks(NetID(i))) + len(n.NetPOs(NetID(i)))
			}
		}
		return g.NumEdges() == sinks
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLogScaleMonotone(t *testing.T) {
	prev := -1.0
	for x := 0.0; x < 300; x += 7 {
		v := logScale(x)
		if v < prev {
			t.Fatalf("logScale not monotone at %g", x)
		}
		prev = v
	}
	if logScale(0) != 0 {
		t.Fatalf("logScale(0) = %g", logScale(0))
	}
}

func TestIsInverting(t *testing.T) {
	if !isInverting(0b0111, 2) { // NAND
		t.Fatal("NAND not inverting")
	}
	if isInverting(0b1000, 2) { // AND
		t.Fatal("AND marked inverting")
	}
	if isInverting(0, 0) {
		t.Fatal("0-input cell marked inverting")
	}
}

// TestIndexBuiltOnceForConcurrentReaders: goroutines that read a fresh
// netlist's fanout at once all see the index one build made (the race
// detector checks that they share it safely), and an Add call after it
// drops it, so the next read sees the new cell.
func TestIndexBuiltOnceForConcurrentReaders(t *testing.T) {
	n := buildSmall(t)
	fanout := make([][]int, 4)
	var wg sync.WaitGroup
	for g := range fanout {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range n.Nets {
				fanout[g] = append(fanout[g], len(n.Sinks(NetID(i)))+len(n.NetPOs(NetID(i))))
			}
		}()
	}
	wg.Wait()
	for g, fo := range fanout {
		if !slices.Equal(fo, []int{1, 1, 1, 1, 1, 1, 1}) {
			t.Fatalf("goroutine %d read fanout %v", g, fo)
		}
	}
	inv := n.MustAddCell(lib.MustCell("INV_X1"), []NetID{0}, n.AddNet())
	if got := n.Sinks(0); len(got) != 2 || got[1] != (PinRef{inv, 0}) {
		t.Fatalf("net a's sinks after a new cell: %v", got)
	}
}
