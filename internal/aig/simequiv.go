package aig

import "math/rand"

// SimEquiv is the functional-equivalence oracle used by the synthesis
// test harness: it reports whether a and b compute the same function
// over identical I/O signatures. Three fast paths run before any
// simulation:
//
//   - an I/O-shape mismatch refutes immediately;
//   - structurally identical graphs (same node array and output
//     literals) are equivalent without simulating;
//   - graphs with at most 6 inputs are checked *exhaustively* in one
//     64-pattern word, so the answer is exact, not probabilistic.
//
// Otherwise the graphs are co-simulated on `rounds` words of 64 seeded
// random patterns each and any differing output word refutes. A "true"
// from the random path can be a false positive with probability
// vanishing in rounds; "false" is always a proof of difference. Output
// words are compared raw, round by round, so the first differing
// pattern word stops the run.
func SimEquiv(a, b *Graph, seed int64, rounds int) bool {
	if a.NumInputs() != b.NumInputs() || a.NumOutputs() != b.NumOutputs() {
		return false
	}
	if structurallyIdentical(a, b) {
		return true
	}
	// Constant fast path: outputs that are literally the constant node
	// in both graphs decide without simulation; a constant/constant
	// mismatch is a proof of difference.
	for i, oa := range a.outputs {
		ob := b.outputs[i]
		if oa.Var() == 0 && ob.Var() == 0 && oa != ob {
			return false
		}
	}
	if a.NumInputs() <= 6 {
		return simEquivExhaustive(a, b)
	}
	if rounds < 1 {
		rounds = 1
	}
	rng := rand.New(rand.NewSource(seed))
	simA, simB := NewSimulator(a), NewSimulator(b)
	in := make([]uint64, a.NumInputs())
	for r := 0; r < rounds; r++ {
		for i := range in {
			in[i] = rng.Uint64()
		}
		if !sameWords(simA.Run(in), simB.Run(in)) {
			return false
		}
	}
	return true
}

// structurallyIdentical reports whether the two graphs are the same
// DAG: equal node arrays, input lists and output literals. Name
// differences are ignored. This is the cheap "pass changed nothing"
// fast path.
func structurallyIdentical(a, b *Graph) bool {
	if len(a.nodes) != len(b.nodes) || len(a.outputs) != len(b.outputs) {
		return false
	}
	for v := range a.nodes {
		if a.nodes[v] != b.nodes[v] {
			return false
		}
	}
	for i := range a.inputs {
		if a.inputs[i] != b.inputs[i] {
			return false
		}
	}
	for i, o := range a.outputs {
		if b.outputs[i] != o {
			return false
		}
	}
	return true
}

// simEquivExhaustive proves or refutes equivalence of graphs with at
// most 6 inputs: one 64-pattern word enumerates every assignment, so
// comparing the masked output words decides the question exactly.
func simEquivExhaustive(a, b *Graph) bool {
	n := a.NumInputs()
	in := make([]uint64, n)
	for i := 0; i < n; i++ {
		// Bit p of input word i is the value of input i under
		// assignment p — the truth-table variable pattern.
		var w uint64
		for p := 0; p < 64; p++ {
			if p>>uint(i)&1 == 1 {
				w |= 1 << uint(p)
			}
		}
		in[i] = w
	}
	mask := ^uint64(0)
	if n < 6 {
		mask = 1<<(1<<uint(n)) - 1
	}
	outA := NewSimulator(a).Run(in)
	outB := NewSimulator(b).Run(in)
	for i := range outA {
		if outA[i]&mask != outB[i]&mask {
			return false
		}
	}
	return true
}

func sameWords(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
