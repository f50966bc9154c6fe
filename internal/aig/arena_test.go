package aig

import (
	"bytes"
	"testing"
)

// arenaChunks is the number of chunks a's slabs hold.
func arenaChunks(a *Arena) int { return len(a.nodes.all) + len(a.inputs.all) }

// TestArenaGraphsMatchFresh: graphs built one after another in an arena
// number, dedupe, fingerprint and write exactly as fresh graphs, also
// when one outgrows its reservation (an estimate) many times over and
// moves out of its chunk, and building a later graph never changes an
// earlier one. Builds within half again their reservations take no new
// chunk after Rewind.
func TestArenaGraphsMatchFresh(t *testing.T) {
	type shape struct{ inputs, ands, reserve int }
	shapes := []shape{{6, 40, 40}, {12, 900, 600}, {3, 10, 10}, {20, 5000, 100}, {8, 300, 600}, {3, 0, 0}}
	var a Arena
	graphs := make([]*Graph, len(shapes))
	for i := range graphs {
		graphs[i] = new(Graph)
	}
	ascii := func(g *Graph) string {
		var buf bytes.Buffer
		if err := g.WriteASCII(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	build := func() []string {
		a.Rewind()
		for i, s := range shapes {
			graphs[i].ResetIn(&a, "g", s.inputs, s.reserve)
			buildRandom(graphs[i], int64(i), s.inputs, s.ands)
			a.Close(graphs[i])
		}
		out := make([]string, len(graphs))
		for i, g := range graphs {
			if cap(g.nodes) != len(g.nodes) || cap(g.inputs) != len(g.inputs) {
				t.Fatalf("graph %d keeps room past its end: nodes %d/%d, inputs %d/%d", i, len(g.nodes), cap(g.nodes), len(g.inputs), cap(g.inputs))
			}
			out[i] = ascii(g)
		}
		return out
	}
	got := build()
	for i, s := range shapes {
		fresh := NewSized("g", s.inputs, s.reserve)
		buildRandom(fresh, int64(i), s.inputs, s.ands)
		if got[i] != ascii(fresh) || graphs[i].Fingerprint() != fresh.Fingerprint() {
			t.Fatalf("graph %d built in the arena differs from a fresh one", i)
		}
	}
	if again := build(); !equalStrings(again, got) {
		t.Fatal("the rewound arena built different graphs")
	}
	shapes = append(shapes[:3], shapes[4:]...) // all within their reservation
	build()
	chunks := arenaChunks(&a)
	if build(); arenaChunks(&a) != chunks {
		t.Fatalf("the same builds after Rewind went from %d to %d chunks", chunks, arenaChunks(&a))
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSlabTakeIsCapped: Take hands out slices capped at their length,
// carved in order from chunks that are handed out again after Rewind.
func TestSlabTakeIsCapped(t *testing.T) {
	var s Slab[int32]
	take := func() [][]int32 {
		s.Rewind()
		var out [][]int32
		for n := range 600 {
			x := s.Take(n % 37)
			for i := range x {
				x[i] = int32(n)
			}
			out = append(out, x)
		}
		return out
	}
	first := take()
	for n, x := range first {
		if len(x) != n%37 || cap(x) != len(x) {
			t.Fatalf("take %d: len %d cap %d", n, len(x), cap(x))
		}
		for _, v := range x {
			if v != int32(n) {
				t.Fatalf("take %d was overwritten by a later one", n)
			}
		}
	}
	chunks := len(s.all)
	if allocs := testing.AllocsPerRun(5, func() { take() }); allocs > 2*9 {
		t.Fatalf("a warm slab round allocated %.0f times", allocs)
	}
	if len(s.all) != chunks {
		t.Fatalf("a repeated round went from %d to %d chunks", chunks, len(s.all))
	}
}

// TestReserveStrashCoversResetIn: a table reserved for a reservation
// serves any graph ResetIn reserves that many ANDs for, up to half as
// many again, without reallocating.
func TestReserveStrashCoversResetIn(t *testing.T) {
	const inputs, ands = 10, 400
	var a Arena
	var table Graph
	table.ReserveStrash(ands)
	storage := &table.strash[:1][0]
	g := new(Graph)
	g.ResetIn(&a, "g", inputs, ands)
	g.SwapStrash(&table)
	l := g.AddInput("")
	for i := range inputs - 1 {
		x := g.AddInput("")
		for range (ands + ands/2 - 1) / (inputs - 1) {
			l = g.And(l, x.NotIf(i%2 == 0)) // each a new node
		}
	}
	g.SwapStrash(&table)
	a.Close(g)
	if g.NumAnds() > ands+ands/2 || g.NumAnds() < ands+ands/3 {
		t.Fatalf("test built %d ANDs, want about %d", g.NumAnds(), ands+ands/2)
	}
	if &table.strash[:1][0] != storage {
		t.Fatal("a graph within half again its reservation regrew the reserved table")
	}
}

// TestUnnamedInputsTakeNoNames: inputs without a name store none, and
// naming a later input leaves the earlier ones unnamed, through Sweep
// and an AIGER round trip.
func TestUnnamedInputsTakeNoNames(t *testing.T) {
	g := New("names")
	a, b := g.AddInput(""), g.AddInput("")
	if len(g.inNames) != 0 {
		t.Fatalf("two unnamed inputs stored %d names", len(g.inNames))
	}
	c := g.AddInput("c")
	g.AddOutput(g.And(g.And(a, b), c), "o")
	for _, h := range []*Graph{g, g.Clone(), func() *Graph { s, _ := g.Sweep(); return s }()} {
		if h.InputName(0) != "" || h.InputName(1) != "" || h.InputName(2) != "c" {
			t.Fatalf("names %q %q %q", h.InputName(0), h.InputName(1), h.InputName(2))
		}
	}
	var buf bytes.Buffer
	if err := g.WriteASCII(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := ReadASCII(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.InputName(1) != "" || r.InputName(2) != "c" || r.Fingerprint() != g.Fingerprint() {
		t.Fatalf("read back names %q %q", r.InputName(1), r.InputName(2))
	}
}
