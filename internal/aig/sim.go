package aig

// Simulator evaluates an AIG on 64 input patterns at once using
// bit-parallel word simulation. SimEquiv co-simulates two graphs on it
// to spot-check equivalence between optimization passes.
type Simulator struct {
	g     *Graph
	words []uint64 // one 64-pattern word per variable
}

// NewSimulator allocates a simulator for g. The simulator stays valid
// across structural changes: if the graph has grown since the last run,
// Run zero-fills the widened scratch before simulating, so no stale
// word from the old layout can leak into a result.
func NewSimulator(g *Graph) *Simulator {
	return &Simulator{g: g, words: make([]uint64, g.NumVars())}
}

// Run simulates the graph on the given input words (one 64-pattern word
// per primary input, in input order) and returns one word per primary
// output. It panics if len(inputs) != NumInputs().
func (s *Simulator) Run(inputs []uint64) []uint64 {
	g := s.g
	if len(inputs) != g.NumInputs() {
		panic("aig: simulator input width mismatch")
	}
	if n := g.NumVars(); len(s.words) < n {
		// The graph grew since construction: widen the scratch and
		// zero-fill it, reusing capacity when the slice allows.
		if cap(s.words) >= n {
			s.words = s.words[:n]
			clear(s.words)
		} else {
			s.words = make([]uint64, n)
		}
	}
	w := s.words
	w[0] = 0
	for i, v := range g.inputs {
		w[v] = inputs[i]
	}
	for v := 1; v < len(g.nodes); v++ {
		n := &g.nodes[v]
		if n.kind != kindAnd {
			continue
		}
		a := w[n.fan0.Var()]
		if n.fan0.IsNeg() {
			a = ^a
		}
		b := w[n.fan1.Var()]
		if n.fan1.IsNeg() {
			b = ^b
		}
		w[v] = a & b
	}
	out := make([]uint64, len(g.outputs))
	for i, o := range g.outputs {
		x := w[o.Var()]
		if o.IsNeg() {
			x = ^x
		}
		out[i] = x
	}
	return out
}
