package aig

import (
	"math/rand"
	"testing"
)

// refStrash is structural hashing the way Graph did it before the index
// table: a Go map from the packed, canonically ordered fanin pair to the
// AND literal. It models only what And returns — folding, commutation,
// reuse, and the next fresh variable — and shares no code with
// Graph.strash; TestStrashMatchesMapReference replays every call
// against it.
type refStrash struct {
	pairs map[uint64]Lit
	vars  int // variables so far, the constant and inputs included
}

func (r *refStrash) and(a, b Lit) Lit {
	if a == False || b == False || a == b.Not() {
		return False
	}
	if a == True {
		return b
	}
	if b == True || a == b {
		return a
	}
	if a > b {
		a, b = b, a
	}
	key := uint64(a)<<32 | uint64(b)
	if l, ok := r.pairs[key]; ok {
		return l
	}
	l := MakeLit(r.vars, false)
	r.vars++
	r.pairs[key] = l
	return l
}

// TestStrashMatchesMapReference drives a graph that starts with the
// smallest table through more than 2^20 And calls — fresh pairs, the
// same pair commuted, exact repeats of old pairs, constants, equal and
// complementary operands — and requires the literal the map reference
// returns, every time. The table starts at 64 slots and is rebuilt a
// dozen times on the way, so lookups after a rebuild are checked too.
func TestStrashMatchesMapReference(t *testing.T) {
	const (
		inputs = 24
		calls  = 1<<20 + 1<<14
	)
	g := NewSized("ref", inputs, 0)
	for i := 0; i < inputs; i++ {
		g.AddInput("")
	}
	ref := &refStrash{pairs: make(map[uint64]Lit), vars: g.NumVars()}
	rng := rand.New(rand.NewSource(18))

	type pair struct{ a, b Lit }
	var history []pair
	operand := func() Lit {
		// Mostly recent variables, so new pairs keep appearing; sometimes
		// any variable, the constant included.
		v := rng.Intn(g.NumVars())
		if rng.Intn(4) != 0 {
			v = g.NumVars() - 1 - rng.Intn(min(64, g.NumVars()))
		}
		return MakeLit(v, rng.Intn(2) == 0)
	}
	growths, size := 0, 0
	for i := 0; i < calls; i++ {
		var p pair
		switch r := rng.Intn(16); {
		case r < 10 && len(history) > 0: // an old pair again, possibly commuted
			p = history[rng.Intn(len(history))]
			if rng.Intn(2) == 0 {
				p.a, p.b = p.b, p.a
			}
		case r == 10: // constant folding
			p = pair{operand(), Lit(rng.Intn(2))}
		case r == 11: // equal or complementary operands
			p.a = operand()
			p.b = p.a.NotIf(rng.Intn(2) == 0)
		default:
			p = pair{operand(), operand()}
			history = append(history, p)
		}
		got, want := g.And(p.a, p.b), ref.and(p.a, p.b)
		if got != want {
			t.Fatalf("call %d: And(%v, %v) = %v, map reference %v", i, p.a, p.b, got, want)
		}
		if len(g.strash) != size {
			growths++
			size = len(g.strash)
		}
	}
	if g.NumVars() != ref.vars {
		t.Fatalf("graph has %d variables, map reference %d", g.NumVars(), ref.vars)
	}
	if growths < 8 {
		t.Fatalf("table grew %d times; the run should span several rebuilds", growths)
	}
	if 2*g.NumAnds() > len(g.strash) {
		t.Fatalf("table over half full: %d nodes in %d slots", g.NumAnds(), len(g.strash))
	}
}

// TestCloneStrashIsIndependent: a clone's table is a copy, so growing
// and filling it never changes what the original finds.
func TestCloneStrashIsIndependent(t *testing.T) {
	g := New("orig")
	var lits []Lit
	for i := 0; i < 16; i++ {
		lits = append(lits, g.AddInput(""))
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 600; i++ {
		a, b := lits[rng.Intn(len(lits))], lits[rng.Intn(len(lits))]
		lits = append(lits, g.And(a, b.NotIf(rng.Intn(2) == 0)))
	}
	vars := g.NumVars()
	last := MakeLit(vars-1, false) // nothing in the original refers to its newest node

	c := g.Clone()
	c.And(last, lits[0])
	for i := 0; i < 5000; i++ { // far past the cloned table's capacity
		a, b := lits[rng.Intn(len(lits))], lits[rng.Intn(len(lits))]
		lits = append(lits, c.And(a, b.NotIf(rng.Intn(2) == 0)))
	}
	if c.NumVars() <= 2*vars {
		t.Fatalf("clone grew to %d variables only; the test needs it to outgrow the copied table", c.NumVars())
	}

	if g.NumVars() != vars {
		t.Fatalf("original grew from %d to %d variables", vars, g.NumVars())
	}
	g.TopoAnds(func(v int, f0, f1 Lit) {
		if got := g.And(f1, f0); got != MakeLit(v, false) {
			t.Fatalf("original lost node %d: And of its fanins returned %v", v, got)
		}
	})
	// A node only the clone has is new to the original.
	if got := g.And(last, lits[0]); got != MakeLit(vars, false) {
		t.Fatalf("original found the clone's node: got %v, want fresh variable %d", got, vars)
	}
}
