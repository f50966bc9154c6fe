// Package designs generates the benchmark circuits of the paper's
// evaluation as And-Inverter Graphs. Two families are provided:
//
//   - Benchmark(name, scale): 18 EPFL/OpenCores-style combinational
//     benchmarks (ten arithmetic, eight control), built as genuine
//     arithmetic and control structures (ripple/array arithmetic,
//     barrel shifters, priority encoders, arbiters, popcount voters),
//     not random graphs — their logic depth, fanout profile and
//     reconvergence mirror the real suites'.
//
//   - EvalDesign(name, scale): the eight designs of the paper's Fig. 3
//     (dyn_node, aes, ibex, jpeg, swerv, ariane, coyote, sparc_core),
//     composed from the benchmark blocks in SoC-like mixes and sized so
//     their relative instance counts match the paper's few-hundred to
//     200k-instance range.
//
// Every generator is deterministic: the same name and scale always
// yields a structurally identical graph.
package designs

import "edacloud/internal/aig"

// word is a little-endian bus of AIG literals.
type word []aig.Lit

// inputWord appends width named primary inputs.
func inputWord(g *aig.Graph, name string, width int) word {
	w := make(word, width)
	for i := range w {
		w[i] = g.AddInput(busBit(name, i))
	}
	return w
}

func busBit(name string, i int) string {
	return name + "[" + itoa(i) + "]"
}

// itoa is a tiny strconv.Itoa to keep the hot path allocation-free.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// outputWord registers all bits of w as primary outputs.
func outputWord(g *aig.Graph, name string, w word) {
	for i, l := range w {
		g.AddOutput(l, busBit(name, i))
	}
}

// constWord returns a width-bit constant.
func constWord(g *aig.Graph, value uint64, width int) word {
	w := make(word, width)
	for i := range w {
		if value>>uint(i)&1 == 1 {
			w[i] = aig.True
		} else {
			w[i] = aig.False
		}
	}
	return w
}

// fullAdd returns (sum, carry) of three bits.
func fullAdd(g *aig.Graph, a, b, c aig.Lit) (aig.Lit, aig.Lit) {
	return g.Xor(g.Xor(a, b), c), g.Maj(a, b, c)
}

// rippleAdd returns a+b+cin as a len(a)-bit sum plus carry out.
// a and b must have equal width.
func rippleAdd(g *aig.Graph, a, b word, cin aig.Lit) (word, aig.Lit) {
	sum := make(word, len(a))
	c := cin
	for i := range a {
		sum[i], c = fullAdd(g, a[i], b[i], c)
	}
	return sum, c
}

// rippleSub returns a-b as a len(a)-bit difference plus a "no borrow"
// flag (1 when a >= b), using two's-complement addition.
func rippleSub(g *aig.Graph, a, b word) (word, aig.Lit) {
	nb := make(word, len(b))
	for i := range b {
		nb[i] = b[i].Not()
	}
	return rippleAddCarry(g, a, nb, aig.True)
}

// rippleAddCarry is rippleAdd that returns the carry as the second
// value; split out for readability at call sites that treat the carry
// as a comparison flag.
func rippleAddCarry(g *aig.Graph, a, b word, cin aig.Lit) (word, aig.Lit) {
	return rippleAdd(g, a, b, cin)
}

// muxWord returns sel ? t : e, bitwise.
func muxWord(g *aig.Graph, sel aig.Lit, t, e word) word {
	out := make(word, len(t))
	for i := range t {
		out[i] = g.Mux(sel, t[i], e[i])
	}
	return out
}

// andWord ands every bit of w with the literal m.
func andWord(g *aig.Graph, w word, m aig.Lit) word {
	out := make(word, len(w))
	for i := range w {
		out[i] = g.And(w[i], m)
	}
	return out
}

// shiftLeftConst returns w << k with zero fill, same width.
func shiftLeftConst(w word, k int) word {
	out := make(word, len(w))
	for i := range out {
		if i >= k {
			out[i] = w[i-k]
		} else {
			out[i] = aig.False
		}
	}
	return out
}

// shiftRightConst returns w >> k with zero fill, same width.
func shiftRightConst(w word, k int) word {
	out := make(word, len(w))
	for i := range out {
		if i+k < len(w) {
			out[i] = w[i+k]
		} else {
			out[i] = aig.False
		}
	}
	return out
}

// barrelShift builds a logarithmic shifter: shift w by the unsigned
// amount in sh (left when left is true), zero filling.
func barrelShift(g *aig.Graph, w word, sh word, left bool) word {
	cur := append(word(nil), w...)
	for s, bit := range sh {
		k := 1 << uint(s)
		if k >= 2*len(w) {
			break
		}
		var shifted word
		if left {
			shifted = shiftLeftConst(cur, k)
		} else {
			shifted = shiftRightConst(cur, k)
		}
		cur = muxWord(g, bit, shifted, cur)
	}
	return cur
}

// geU returns the literal a >= b (unsigned).
func geU(g *aig.Graph, a, b word) aig.Lit {
	_, noBorrow := rippleSub(g, a, b)
	return noBorrow
}

// mulArray builds an array multiplier: len(a)+len(b) output bits.
func mulArray(g *aig.Graph, a, b word) word {
	width := len(a) + len(b)
	acc := constWord(g, 0, width)
	for j, bj := range b {
		pp := make(word, width)
		for i := range pp {
			pp[i] = aig.False
		}
		for i, ai := range a {
			if i+j < width {
				pp[i+j] = g.And(ai, bj)
			}
		}
		acc, _ = rippleAdd(g, acc, pp, aig.False)
	}
	return acc
}

// popcount returns the population count of w as a compact sum word.
func popcount(g *aig.Graph, w word) word {
	// Pairwise adder tree over equal-width partial counts.
	counts := make([]word, len(w))
	for i, b := range w {
		counts[i] = word{b}
	}
	for len(counts) > 1 {
		var next []word
		for i := 0; i+1 < len(counts); i += 2 {
			a, b := counts[i], counts[i+1]
			// Pad to equal width.
			for len(a) < len(b) {
				a = append(a, aig.False)
			}
			for len(b) < len(a) {
				b = append(b, aig.False)
			}
			sum, carry := rippleAdd(g, a, b, aig.False)
			next = append(next, append(sum, carry))
		}
		if len(counts)%2 == 1 {
			next = append(next, counts[len(counts)-1])
		}
		counts = next
	}
	return counts[0]
}

// priorityEncode returns a one-hot grant vector (highest index wins is
// false — lowest index wins) plus a "none" flag.
func priorityEncode(g *aig.Graph, req word) (word, aig.Lit) {
	grant := make(word, len(req))
	blocked := aig.False // any earlier request seen
	for i, r := range req {
		grant[i] = g.And(r, blocked.Not())
		blocked = g.Or(blocked, r)
	}
	return grant, blocked.Not()
}

// leadingOnePos returns the bit position (as a log2width-wide word) of
// the most significant set bit and a valid flag.
func leadingOnePos(g *aig.Graph, w word) (word, aig.Lit) {
	bits := 0
	for 1<<uint(bits) < len(w) {
		bits++
	}
	pos := constWord(g, 0, bits)
	found := aig.False
	// Scan from MSB down, latching the first hit.
	for i := len(w) - 1; i >= 0; i-- {
		isFirst := g.And(w[i], found.Not())
		idx := constWord(g, uint64(i), bits)
		pos = muxWord(g, isFirst, idx, pos)
		found = g.Or(found, w[i])
	}
	return pos, found
}
