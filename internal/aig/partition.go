package aig

import (
	"fmt"
	"slices"
)

// Cone partitioning splits an AIG into independent resynthesis units —
// the substrate of the synthesis engine's cone-parallel rewriting. Each
// AND node reachable from a primary output is *owned* by exactly one
// partition: the partition of the first (lowest-index) output whose
// transitive fanin cone contains it. Because ownership follows the
// first covering output, every cross-partition fanin edge points from a
// higher-index partition into a strictly lower-index one: if an owned
// node v references u, then u is reachable from v's covering output,
// so u's first covering output index is <= v's. Partitions can
// therefore be resynthesized concurrently against private structural
// hash tables — foreign references become placeholder leaves — and
// merged back in ascending partition order, each merge seeing every
// literal it needs already resolved.
//
// The partitioning is a pure function of the graph and the grain: no
// worker count, machine property or map-iteration order enters it,
// which is what lets the parallel synthesis passes stay bit-identical
// at any pool size.

// ConePartition is one group of primary outputs plus the AND nodes it
// owns.
type ConePartition struct {
	// Outputs holds the indices of the primary outputs grouped into
	// this partition, ascending.
	Outputs []int
	// Nodes holds the owned AND variables in ascending (topological)
	// order.
	Nodes []int32
}

// ConePartitioning is the result of PartitionCones.
type ConePartitioning struct {
	Parts []ConePartition
	// Owner maps each variable to the partition owning it, or -1 for
	// inputs, the constant node and dangling logic.
	Owner []int32

	// outs and nodes back every partition's Outputs and Nodes, and
	// stack is the cone walk's; PartitionConesInto reuses all three.
	outs  []int
	nodes []int32
	stack []int
}

// NumParts returns the number of partitions.
func (cp *ConePartitioning) NumParts() int { return len(cp.Parts) }

// PartitionCones groups the primary outputs into contiguous partitions
// owning roughly grain AND nodes each (grain <= 0 means 256). Outputs
// are assigned in order, so two runs over the same graph always
// produce the same partitioning. Dangling AND nodes (unreachable from
// every output) are owned by no partition.
func (g *Graph) PartitionCones(grain int) *ConePartitioning {
	return g.PartitionConesInto(new(ConePartitioning), grain)
}

// PartitionConesInto is PartitionCones building the partitioning in cp,
// whose storage it reuses: a caller that partitions one graph after
// another allocates only when a graph outgrows every earlier one. Every
// slice of cp's previous partitioning is overwritten.
func (g *Graph) PartitionConesInto(cp *ConePartitioning, grain int) *ConePartitioning {
	if grain <= 0 {
		grain = 256
	}
	cp.Owner = slices.Grow(cp.Owner[:0], len(g.nodes))[:len(g.nodes)]
	for i := range cp.Owner {
		cp.Owner[i] = -1
	}
	cp.Parts = cp.Parts[:0]
	if len(g.outputs) == 0 {
		return cp
	}

	// Mark each output's cone in output order; a node joins the
	// partition current when it is first reached (its owner is still
	// -1). Partitions close once they own at least grain AND nodes, so
	// partition sizes track the *incremental* cone sizes — the actual
	// resynthesis work — rather than raw (overlapping) cone sizes. Every
	// partition's outputs and nodes are consecutive runs of two shared
	// arrays, each sized once.
	owner := cp.Owner
	outs := slices.Grow(cp.outs[:0], len(g.outputs))[:len(g.outputs)]
	nodes := slices.Grow(cp.nodes[:0], g.NumAnds())
	stack := cp.stack
	first, firstNode := 0, 0 // the current partition's first output and node
	for oi, o := range g.outputs {
		outs[oi] = oi
		stack = append(stack[:0], o.Var())
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			n := &g.nodes[v]
			if n.kind != kindAnd || owner[v] >= 0 {
				continue
			}
			owner[v] = int32(len(cp.Parts))
			nodes = append(nodes, int32(v))
			stack = append(stack, n.fan0.Var(), n.fan1.Var())
		}
		if len(nodes)-firstNode >= grain || oi == len(g.outputs)-1 {
			part := ConePartition{
				Outputs: outs[first : oi+1 : oi+1],
				Nodes:   nodes[firstNode:len(nodes):len(nodes)],
			}
			slices.Sort(part.Nodes)
			cp.Parts = append(cp.Parts, part)
			first, firstNode = oi+1, len(nodes)
		}
	}
	cp.outs, cp.nodes, cp.stack = outs, nodes, stack
	return cp
}

// Append copies sub's AND nodes into g in topological order, folding
// and structurally hashing them against g's existing nodes. Sub's i-th
// primary input is identified with inputMap[i] (a literal of g), which
// is how a resynthesized partition shard rejoins the merged graph: the
// shard's placeholder leaves map to the final literals of already
// merged partitions. It returns a map from sub variable to g literal.
// Sub's outputs are not copied; callers resolve them through the
// returned map.
func (g *Graph) Append(sub *Graph, inputMap []Lit) []Lit {
	if len(inputMap) != sub.NumInputs() {
		panic("aig: Append input map length mismatch")
	}
	old2new := make([]Lit, len(sub.nodes))
	old2new[0] = False
	for i, v := range sub.inputs {
		old2new[v] = inputMap[i]
	}
	for v := 1; v < len(sub.nodes); v++ {
		n := &sub.nodes[v]
		if n.kind != kindAnd {
			continue
		}
		f0 := old2new[n.fan0.Var()].NotIf(n.fan0.IsNeg())
		f1 := old2new[n.fan1.Var()].NotIf(n.fan1.IsNeg())
		old2new[v] = g.And(f0, f1)
	}
	return old2new
}

// SubDesign is one partition of a parent graph lifted into a standalone
// design, the unit of hierarchical flows: each sub-design can run a
// full synthesis flow on its own (even on its own fleet machine) and
// StitchSubDesigns reassembles the results. The interface is the
// contract: Graph's inputs are backed by the parent variables in
// Imports, its first len(Outputs) outputs realize the parent primary
// outputs listed in Outputs, and the remaining outputs drive the parent
// variables in Exports — owned nodes that other partitions reference.
// Any transformation that preserves input count and per-output function
// (every synthesis pass does) keeps the sub-design stitchable.
type SubDesign struct {
	Graph *Graph
	// Imports holds the parent variables backing Graph's inputs, in
	// input order (ascending): primary inputs of the parent and nodes
	// owned by lower-index partitions.
	Imports []int32
	// Outputs holds the parent primary-output indices realized by
	// Graph's first len(Outputs) outputs, in order.
	Outputs []int
	// Exports holds the parent variables driven by Graph's remaining
	// outputs, ascending.
	Exports []int32
}

// ExtractSubDesigns lifts every partition of cp into a standalone
// SubDesign. Cross-partition references always point from a partition
// into a strictly lower-index one (see the package comment), so the
// sub-designs form a DAG that StitchSubDesigns can reassemble in
// ascending order. The extraction is serial and reuses one var-indexed
// scratch across partitions, so its footprint is O(NumVars) plus the
// sub-graphs themselves.
func (g *Graph) ExtractSubDesigns(cp *ConePartitioning) []SubDesign {
	n := cp.NumParts()
	subs := make([]SubDesign, n)
	exportsOf := make([][]int32, n)
	exported := make([]bool, len(g.nodes))
	mark := make([]bool, len(g.nodes))

	// Pass 1: each partition's foreign reference set — direct fanins of
	// owned nodes plus the vars of its assigned primary outputs — split
	// into imports (of this partition) and exports (of the owner).
	for pi := 0; pi < n; pi++ {
		part := &cp.Parts[pi]
		var imp []int32
		foreign := func(u int) {
			if u == 0 || cp.Owner[u] == int32(pi) || mark[u] {
				return
			}
			mark[u] = true
			imp = append(imp, int32(u))
			if pj := cp.Owner[u]; pj >= 0 && !exported[u] {
				exported[u] = true
				exportsOf[pj] = append(exportsOf[pj], int32(u))
			}
		}
		for _, v := range part.Nodes {
			f0, f1 := g.Fanins(int(v))
			foreign(f0.Var())
			foreign(f1.Var())
		}
		for _, oi := range part.Outputs {
			foreign(g.outputs[oi].Var())
		}
		slices.Sort(imp)
		subs[pi].Imports = imp
		subs[pi].Outputs = append([]int(nil), part.Outputs...)
		for _, u := range imp {
			mark[u] = false
		}
	}

	// Pass 2: build each sub-graph — placeholder inputs, owned nodes in
	// topological order, primary outputs then export outputs.
	o2n := make([]Lit, len(g.nodes))
	o2n[0] = False
	for pi := 0; pi < n; pi++ {
		part := &cp.Parts[pi]
		sub := &subs[pi]
		sg := New(fmt.Sprintf("%s/p%03d", g.Name, pi))
		for _, u := range sub.Imports {
			o2n[u] = sg.AddInput("")
		}
		for _, v := range part.Nodes {
			f0, f1 := g.Fanins(int(v))
			a := o2n[f0.Var()].NotIf(f0.IsNeg())
			b := o2n[f1.Var()].NotIf(f1.IsNeg())
			o2n[v] = sg.And(a, b)
		}
		for _, oi := range part.Outputs {
			o := g.outputs[oi]
			sg.AddOutput(o2n[o.Var()].NotIf(o.IsNeg()), g.OutputName(oi))
		}
		slices.Sort(exportsOf[pi])
		sub.Exports = exportsOf[pi]
		for _, u := range sub.Exports {
			sg.AddOutput(o2n[u], "")
		}
		sub.Graph = sg
		for _, u := range sub.Imports {
			o2n[u] = 0
		}
		for _, v := range part.Nodes {
			o2n[v] = 0
		}
	}
	return subs
}

// StitchSubDesigns reassembles a full design from the sub-designs of a
// cone partitioning, in ascending partition order: each sub-design's
// placeholder inputs map to the stitched literals of parent inputs and
// lower partitions' exports, its nodes re-strash against the
// accumulated graph, and its outputs resolve the parent primary
// outputs (restored to their original order) and the exported
// variables. The subs may have been independently re-synthesized since
// extraction — stitching only relies on the SubDesign interface, not
// on the extracted structure.
func StitchSubDesigns(g *Graph, cp *ConePartitioning, subs []SubDesign) *Graph {
	ng := New(g.Name)
	final := make([]Lit, len(g.nodes))
	final[0] = False
	for i, v := range g.inputs {
		final[v] = ng.AddInput(g.InputName(i))
	}
	outLits := make([]Lit, len(g.outputs))
	for pi := range subs {
		sub := &subs[pi]
		inMap := make([]Lit, len(sub.Imports))
		for i, u := range sub.Imports {
			inMap[i] = final[u]
		}
		m := ng.Append(sub.Graph, inMap)
		souts := sub.Graph.Outputs()
		if len(souts) != len(sub.Outputs)+len(sub.Exports) {
			panic("aig: sub-design output arity mismatch")
		}
		for j, oi := range sub.Outputs {
			so := souts[j]
			outLits[oi] = m[so.Var()].NotIf(so.IsNeg())
		}
		for j, u := range sub.Exports {
			so := souts[len(sub.Outputs)+j]
			final[u] = m[so.Var()].NotIf(so.IsNeg())
		}
	}
	for oi, l := range outLits {
		ng.AddOutput(l, g.OutputName(oi))
	}
	return ng
}
