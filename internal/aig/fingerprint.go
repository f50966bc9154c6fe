package aig

import "edacloud/internal/hash"

// Canonical structural identity for the content-addressed artifact
// cache: two graphs with the same fingerprint are the same circuit
// node for node — variable layout, input/output bindings, names and
// every AND's fanin pair — independent of how they were built or
// serialized. FNV-1a over fixed-width words, so the hash covers
// structure, not formatting.

// Fingerprint returns the graph's canonical structural hash.
func (g *Graph) Fingerprint() uint64 {
	h := hash.New()
	h.Int(g.NumVars())
	h.Int(g.NumInputs())
	h.Int(g.NumOutputs())
	for i := 0; i < g.NumInputs(); i++ {
		h.Str(g.InputName(i))
		h.Word(uint64(g.Input(i)))
	}
	for i := 0; i < g.NumOutputs(); i++ {
		h.Str(g.OutputName(i))
		h.Word(uint64(g.Output(i)))
	}
	for v := 0; v < g.NumVars(); v++ {
		if !g.IsAnd(v) {
			continue
		}
		a, b := g.Fanins(v)
		h.Int(v)
		h.Word(uint64(a))
		h.Word(uint64(b))
	}
	return uint64(h)
}

// ApproxBytes estimates the graph's in-memory footprint — the unit a
// byte-budgeted artifact cache accounts this graph in.
func (g *Graph) ApproxBytes() int64 {
	// Two fanin literals per var plus node bookkeeping, and the
	// input/output binding tables with their names.
	b := int64(g.NumVars()) * 24
	for i := 0; i < g.NumInputs(); i++ {
		b += 16 + int64(len(g.InputName(i)))
	}
	for i := 0; i < g.NumOutputs(); i++ {
		b += 16 + int64(len(g.OutputName(i)))
	}
	return b
}
