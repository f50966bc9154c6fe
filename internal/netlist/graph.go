package netlist

import "edacloud/internal/aig"

// Graph is the star-model directed-graph export of a netlist (or an
// AIG), the input representation of the paper's GCN predictor (its
// Fig. 4). Nodes are cell instances plus primary I/O pins; every net
// becomes a star of directed edges from the driving node to each sink
// node. Features carries one fixed-width feature vector per node.
type Graph struct {
	Name     string
	NumNodes int
	// Edges in compressed sparse row form: for node u, the successor
	// nodes are Succ[Start[u]:Start[u+1]].
	Start []int32
	Succ  []int32
	// Features is a NumNodes x FeatureDim matrix.
	Features [][]float64
}

// FeatureDim is the width of per-node feature vectors produced by the
// graph exports. Layout:
//
//	0: is primary input pin
//	1: is primary output pin
//	2: is sequential cell
//	3: is inverting gate (or AIG AND node)
//	4: fanin count (normalized by 4)
//	5: fanout count (log-scaled)
//	6: logic level (normalized by graph depth)
//	7: cell area (normalized; 0 for AIG nodes)
const FeatureDim = 8

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.Succ) }

// Successors returns the successor list of node u (shared storage).
func (g *Graph) Successors(u int) []int32 { return g.Succ[g.Start[u]:g.Start[u+1]] }

// edgeAccum builds CSR adjacency from an edge list in two passes.
type edgeAccum struct {
	n     int
	us    []int32
	vs    []int32
	count []int32
}

func newEdgeAccum(n int) *edgeAccum {
	return &edgeAccum{n: n, count: make([]int32, n+1)}
}

func (e *edgeAccum) add(u, v int32) {
	e.us = append(e.us, u)
	e.vs = append(e.vs, v)
	e.count[u+1]++
}

func (e *edgeAccum) build() ([]int32, []int32) {
	start := e.count
	for i := 0; i < e.n; i++ {
		start[i+1] += start[i]
	}
	succ := make([]int32, len(e.us))
	cursor := make([]int32, e.n)
	for i, u := range e.us {
		succ[start[u]+cursor[u]] = e.vs[i]
		cursor[u]++
	}
	return start, succ
}

// StarGraph exports the netlist as a star-model directed graph with GCN
// features. Node numbering: cells first (by CellID), then PI pins, then
// PO pins.
func (n *Netlist) StarGraph() *Graph {
	nCells := len(n.Cells)
	nNodes := nCells + len(n.PIs) + len(n.POs)
	piNode := func(pi int32) int32 { return int32(nCells) + pi }
	poNode := func(po int32) int32 { return int32(nCells+len(n.PIs)) + po }

	acc := newEdgeAccum(nNodes)
	for id := range n.Nets {
		net := &n.Nets[id]
		var src int32
		switch {
		case net.Driver != NoCell:
			src = int32(net.Driver)
		case net.DriverPI >= 0:
			src = piNode(net.DriverPI)
		default:
			continue // floating net
		}
		for _, s := range n.Sinks(NetID(id)) {
			acc.add(src, int32(s.Cell))
		}
		for _, po := range n.NetPOs(NetID(id)) {
			acc.add(src, poNode(po))
		}
	}
	start, succ := acc.build()

	g := &Graph{
		Name:     n.Name,
		NumNodes: nNodes,
		Start:    start,
		Succ:     succ,
		Features: make([][]float64, nNodes),
	}

	levels, err := n.Levels()
	var maxLevel float64 = 1
	if err == nil {
		for _, l := range levels {
			if float64(l) > maxLevel {
				maxLevel = float64(l)
			}
		}
	}
	var maxArea float64 = 1e-9
	for _, c := range n.Lib.Cells {
		if c.Area > maxArea {
			maxArea = c.Area
		}
	}
	fo := n.FanoutCounts()

	for id := range n.Cells {
		c := &n.Cells[id]
		f := make([]float64, FeatureDim)
		if c.Type.Seq {
			f[2] = 1
		}
		if isInverting(c.Type.TT, c.Type.NumInputs()) && !c.Type.Seq {
			f[3] = 1
		}
		f[4] = float64(c.Type.NumInputs()) / 4
		f[5] = logScale(float64(fo[id]))
		if err == nil {
			f[6] = float64(levels[id]) / maxLevel
		}
		f[7] = c.Type.Area / maxArea
		g.Features[id] = f
	}
	for i := range n.PIs {
		f := make([]float64, FeatureDim)
		f[0] = 1
		f[5] = logScale(float64(len(n.Sinks(n.PIs[i].Net))))
		g.Features[nCells+i] = f
	}
	for i := range n.POs {
		f := make([]float64, FeatureDim)
		f[1] = 1
		f[6] = 1
		g.Features[nCells+len(n.PIs)+i] = f
	}
	return g
}

// AIGGraph exports an And-Inverter Graph as a directed graph with the
// same feature layout, used by the synthesis-runtime predictor. Node
// numbering: AIG variables 1..N-1 (the constant node is dropped) then
// PO pseudo-nodes.
func AIGGraph(g *aig.Graph) *Graph {
	nVars := g.NumVars() - 1 // skip constant
	nNodes := nVars + g.NumOutputs()
	varNode := func(v int) int32 { return int32(v - 1) }

	acc := newEdgeAccum(nNodes)
	g.TopoAnds(func(v int, f0, f1 aig.Lit) {
		if f0.Var() != 0 {
			acc.add(varNode(f0.Var()), varNode(v))
		}
		if f1.Var() != 0 {
			acc.add(varNode(f1.Var()), varNode(v))
		}
	})
	outs := g.Outputs()
	for i, o := range outs {
		if o.Var() != 0 {
			acc.add(varNode(o.Var()), int32(nVars+i))
		}
	}
	start, succ := acc.build()

	og := &Graph{
		Name:     g.Name,
		NumNodes: nNodes,
		Start:    start,
		Succ:     succ,
		Features: make([][]float64, nNodes),
	}
	levels := g.Levels()
	maxLevel := float64(g.Depth())
	if maxLevel < 1 {
		maxLevel = 1
	}
	fanout := g.FanoutCounts()
	for v := 1; v <= nVars; v++ {
		f := make([]float64, FeatureDim)
		if g.IsInput(v) {
			f[0] = 1
		} else {
			f[3] = 1 // AND node
			f[4] = 2.0 / 4
		}
		f[5] = logScale(float64(fanout[v]))
		f[6] = float64(levels[v]) / maxLevel
		og.Features[v-1] = f
	}
	for i := range outs {
		f := make([]float64, FeatureDim)
		f[1] = 1
		f[6] = 1
		og.Features[nVars+i] = f
	}
	return og
}

// isInverting reports whether the output is 0 under the all-ones input,
// a cheap proxy for "inverting CMOS stage" used as a node feature.
func isInverting(tt uint16, nIns int) bool {
	if nIns == 0 {
		return false
	}
	allOnes := uint16(1)<<nIns - 1
	return tt>>allOnes&1 == 0
}

// logScale maps a non-negative count to log2(1+x)/8, keeping typical
// fanouts in [0,1].
func logScale(x float64) float64 {
	v := 0.0
	for x >= 1 {
		x /= 2
		v++
	}
	return (v + x) / 8 // piecewise-linear log2(1+x) approximation
}
