package aig

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestSimEquivShapeMismatch(t *testing.T) {
	g := New("g")
	a := g.AddInput("a")
	g.AddOutput(a, "f")
	h := New("h")
	h.AddInput("a")
	h.AddInput("b")
	if SimEquiv(g, h, 1, 4) {
		t.Fatal("I/O mismatch reported equivalent")
	}
}

func TestSimEquivStructuralFastPath(t *testing.T) {
	g := randGraph(7, 8, 100, 5)
	if !SimEquiv(g, g.Clone(), 1, 0) {
		t.Fatal("clone not structurally identical")
	}
}

func TestSimEquivConstantFastPath(t *testing.T) {
	g := New("g")
	g.AddInput("a")
	g.AddOutput(True, "f")
	h := New("h")
	h.AddInput("a")
	h.AddOutput(False, "f")
	if SimEquiv(g, h, 1, 4) {
		t.Fatal("True vs False reported equivalent")
	}
	h2 := New("h2")
	h2.AddInput("a")
	h2.AddOutput(True, "f")
	if !SimEquiv(g, h2, 1, 4) {
		t.Fatal("True vs True reported different")
	}
}

// TestSimEquivExhaustiveIsExact: at <= 6 inputs SimEquiv must find the
// single differing assignment no random round could be trusted with —
// two functions differing in exactly one minterm.
func TestSimEquivExhaustiveIsExact(t *testing.T) {
	g := New("and6")
	h := New("true6")
	var gl []Lit
	for i := 0; i < 6; i++ {
		gl = append(gl, g.AddInput(""))
		h.AddInput("")
	}
	// g = AND of all six inputs; h = constant true. They agree on 63 of
	// 64 assignments.
	g.AddOutput(g.AndN(gl), "f")
	h.AddOutput(True, "f")
	if SimEquiv(g, h, 42, 1) {
		t.Fatal("one-minterm difference missed at <=6 inputs")
	}
}

// TestSimEquivRefutesOnWideGraphs: the random path must separate AND
// from OR over many inputs.
func TestSimEquivRefutesOnWideGraphs(t *testing.T) {
	g := New("wand")
	h := New("wor")
	var gl, hl []Lit
	for i := 0; i < 16; i++ {
		gl = append(gl, g.AddInput(""))
		hl = append(hl, h.AddInput(""))
	}
	g.AddOutput(g.AndN(gl).Not(), "f")
	h.AddOutput(h.OrN(hlNot(h, hl)), "f")
	// By De Morgan these are actually equivalent; SimEquiv must agree.
	if !SimEquiv(g, h, 3, 16) {
		t.Fatal("De Morgan pair reported different")
	}
	// Flip one output polarity: must refute.
	g2 := New("wand2")
	var g2l []Lit
	for i := 0; i < 16; i++ {
		g2l = append(g2l, g2.AddInput(""))
	}
	g2.AddOutput(g2.AndN(g2l), "f")
	if SimEquiv(g2, h, 3, 16) {
		t.Fatal("complemented function reported equivalent")
	}
}

func hlNot(g *Graph, ls []Lit) []Lit {
	out := make([]Lit, len(ls))
	for i, l := range ls {
		out[i] = l.Not()
	}
	return out
}

// diffPatterns counts the assignments of a 7-input graph pair on which
// any output differs: two 64-pattern words enumerate all 128.
func diffPatterns(a, b *Graph) int {
	var in [2][7]uint64
	for w := range in {
		for i := 0; i < 6; i++ {
			for p := 0; p < 64; p++ {
				if p>>uint(i)&1 == 1 {
					in[w][i] |= 1 << uint(p)
				}
			}
		}
	}
	in[1][6] = ^uint64(0)
	n := 0
	for w := range in {
		outA := NewSimulator(a).Run(in[w][:])
		outB := NewSimulator(b).Run(in[w][:])
		var diff uint64
		for i := range outA {
			diff |= outA[i] ^ outB[i]
		}
		n += bits.OnesCount64(diff)
	}
	return n
}

// Property: on random 7-input graph pairs (too wide for SimEquiv's
// exhaustive path) SimEquiv never refutes a pair the exhaustive check
// proves equal, and refutes every pair that differs on at least an
// eighth of the assignments (a miss over 8 rounds of 64 patterns has
// probability below (7/8)^512).
func TestQuickSimEquivMatchesExhaustive(t *testing.T) {
	f := func(seed int64) bool {
		g := randGraph(seed, 7, 80, 4)
		sw, _ := g.Sweep()
		other := randGraph(seed+1, 7, 80, 4)
		d := diffPatterns(g, other)
		sim := SimEquiv(g, other, seed, 8)
		return SimEquiv(g, sw, seed, 8) && diffPatterns(g, sw) == 0 &&
			(d != 0 || sim) && (d < 16 || !sim)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
