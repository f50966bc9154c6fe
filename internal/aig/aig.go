// Package aig implements And-Inverter Graphs (AIGs), the intermediate
// representation used by the synthesis engine and the GCN runtime
// predictor. An AIG is a directed acyclic graph whose internal nodes are
// two-input AND gates and whose edges may be complemented. The package
// provides structural hashing (an open-addressed index table over the
// node array, see Graph.strash), constant propagation, levelization,
// 64-way parallel simulation, dead-node sweeping and ASCII AIGER I/O.
//
// Literals follow the AIGER convention: a literal is 2*variable plus a
// complementation bit. Variable 0 is the constant-false node, so literal
// 0 is FALSE and literal 1 is TRUE.
package aig

import (
	"fmt"
	"math/bits"
	"slices"
)

// Lit is an AIG literal: 2*variable + complement bit.
type Lit uint32

// Constant literals.
const (
	False Lit = 0 // constant false (variable 0, uncomplemented)
	True  Lit = 1 // constant true (variable 0, complemented)
)

// MakeLit builds the literal for variable v, complemented when neg is true.
func MakeLit(v int, neg bool) Lit {
	l := Lit(v) << 1
	if neg {
		l |= 1
	}
	return l
}

// Var returns the variable index of the literal.
func (l Lit) Var() int { return int(l >> 1) }

// IsNeg reports whether the literal is complemented.
func (l Lit) IsNeg() bool { return l&1 == 1 }

// Not returns the complemented literal.
func (l Lit) Not() Lit { return l ^ 1 }

// NotIf complements the literal when c is true.
func (l Lit) NotIf(c bool) Lit {
	if c {
		return l ^ 1
	}
	return l
}

func (l Lit) String() string {
	if l.IsNeg() {
		return fmt.Sprintf("!n%d", l.Var())
	}
	return fmt.Sprintf("n%d", l.Var())
}

// kind discriminates node types. Variable 0 is always the constant node.
type kind uint8

const (
	kindConst kind = iota
	kindInput
	kindAnd
)

// node is an AIG node. For AND nodes fan0 and fan1 are the fanin
// literals with fan0 <= fan1 (canonical order for structural hashing).
type node struct {
	fan0, fan1 Lit
	kind       kind
}

// Graph is a mutable And-Inverter Graph. The zero value is not usable;
// create graphs with New. Nodes are stored in topological order: an AND
// node's fanins always have smaller variable indices, so iterating
// variables 1..N-1 visits fanins before fanouts.
type Graph struct {
	Name string

	nodes   []node
	inputs  []int // variable indices of primary inputs, in creation order
	outputs []Lit // primary output literals, in creation order

	// inNames ends at the last named input: unnamed ones take no room.
	inNames  []string
	outNames []string

	// strash is the structural-hash table: an open-addressed array of
	// AND variable indices (0 marks an empty slot: variable 0 is the
	// constant, never an AND). A slot's key is the fanin pair already
	// stored in nodes, so the table holds no keys of its own and is
	// rebuilt from nodes when it grows: the first And that creates a node
	// sizes it for reserve ANDs, in the storage it has when that is large
	// enough, and it is kept at most half full.
	strash  []int32
	reserve int // ANDs the last NewSized or Reset made room for

	// Memoized levels and fanout counts; a stale memo keeps its storage.
	levels, fanoutSize []int32
	levelsOK, fanoutOK bool
}

// New returns an empty graph containing only the constant node.
func New(name string) *Graph { return NewSized(name, 0, 1023) }

// NewSized is New with room reserved for the given numbers of primary
// inputs and AND nodes, a hint rather than a limit: a caller that knows
// what it will add avoids regrowing the node array, the input list and
// the hash table.
func NewSized(name string, inputs, ands int) *Graph {
	g := new(Graph)
	g.Reset(name, inputs, ands)
	return g
}

// Reset empties the graph in place, as if it were NewSized(name, inputs,
// ands), but keeps its node, port, strash and memo arrays for reuse, so
// it allocates only when the new graph outgrows them. A graph rebuilt
// after Reset numbers, dedupes and fingerprints exactly as a fresh one
// does; only the hash table's slot positions may differ.
func (g *Graph) Reset(name string, inputs, ands int) {
	g.Name = name
	if cap(g.nodes) < 1+inputs+ands {
		g.nodes = make([]node, 1, 1+inputs+ands)
	}
	g.nodes = g.nodes[:1]
	g.nodes[0] = node{kind: kindConst}
	clear(g.inNames)
	clear(g.outNames)
	if cap(g.inputs) < inputs {
		g.inputs = make([]int, 0, inputs)
		g.inNames = make([]string, 0, inputs)
	}
	g.inputs = g.inputs[:0]
	g.outputs = g.outputs[:0]
	g.inNames = g.inNames[:0]
	g.outNames = g.outNames[:0]
	g.strash = g.strash[:0]
	g.reserve = ands
	g.invalidate()
}

// Arena is storage that graphs built one after another share until
// Rewind, such as a pass's shard graphs: the graph in hand grows into
// its chunk, and Close leaves the rest to the next graph.
type Arena struct {
	nodes  Slab[node]
	inputs Slab[int]
}

// ResetIn is Reset with g's arrays taken from a, until a.Close(g). The
// ANDs are an estimate: g has room for half as many again.
func (g *Graph) ResetIn(a *Arena, name string, inputs, ands int) {
	ands += ands / 2
	g.nodes, g.inputs = a.nodes.open(1+inputs+ands), a.inputs.open(inputs)
	g.Reset(name, inputs, ands)
}

// ReserveStrash makes room in g's hash-table storage, which SwapStrash
// lends, for a graph ResetIn reserves ands for (Reset: half again).
func (g *Graph) ReserveStrash(ands int) {
	if n := 2 * (ands + ands/2); cap(g.strash) < n {
		g.strash = make([]int32, 0, n)
	}
}

// Close ends the build of g, which ResetIn began in a.
func (a *Arena) Close(g *Graph) {
	g.nodes, g.inputs = a.nodes.close(g.nodes), a.inputs.close(g.inputs)
}

// Rewind frees all of a's storage for new graphs.
func (a *Arena) Rewind() {
	a.nodes.Rewind()
	a.inputs.Rewind()
}

// Slab hands out slices of chunks that double up to 1<<14 entries and
// serve again after each Rewind, so it allocates only when a round
// outgrows every earlier one, and drops nothing.
type Slab[T any] struct {
	all  [][]T
	used int // chunks handed out since the rewind, all[:used]
	free []T // the current chunk's unused tail
}

// Rewind frees every chunk for new slices.
func (s *Slab[T]) Rewind() { s.used, s.free = 0, nil }

// Take returns n entries, not cleared, capped at n.
func (s *Slab[T]) Take(n int) []T { return s.close(s.open(n)[:n]) }

// open returns the free tail, emptied, with room for at least n: the
// current chunk's, or else the first free chunk that is long enough.
func (s *Slab[T]) open(n int) []T {
	if len(s.free) < n {
		j := s.used
		for j < len(s.all) && len(s.all[j]) < n {
			j++
		}
		if j == len(s.all) {
			s.all = append(s.all, make([]T, max(256<<min(len(s.all), 6), n)))
		}
		s.all[s.used], s.all[j] = s.all[j], s.all[s.used]
		s.free, s.used = s.all[s.used], s.used+1
	}
	return s.free[:0]
}

// close caps t, which open began, at its length and keeps what follows
// it for the next open; an array that append moved t to joins the slab.
func (s *Slab[T]) close(t []T) []T {
	if cap(t) > 0 && (len(s.free) == 0 || &t[:1][0] != &s.free[:1][0]) {
		s.all, s.used = slices.Insert(s.all, max(s.used-1, 0), t[:cap(t)]), s.used+1
	} else {
		s.free = s.free[len(t):]
	}
	return t[:len(t):len(t)]
}

// NumVars returns the number of variables including the constant node.
func (g *Graph) NumVars() int { return len(g.nodes) }

// NumInputs returns the number of primary inputs.
func (g *Graph) NumInputs() int { return len(g.inputs) }

// NumOutputs returns the number of primary outputs.
func (g *Graph) NumOutputs() int { return len(g.outputs) }

// NumAnds returns the number of AND nodes (the conventional AIG size).
func (g *Graph) NumAnds() int { return len(g.nodes) - 1 - len(g.inputs) }

// AddInput appends a fresh primary input and returns its literal.
func (g *Graph) AddInput(name string) Lit {
	v := len(g.nodes)
	g.nodes = append(g.nodes, node{kind: kindInput})
	g.inputs = append(g.inputs, v)
	if name != "" {
		g.setInputName(len(g.inputs)-1, name)
	}
	g.invalidate()
	return MakeLit(v, false)
}

// Input returns the literal of the i-th primary input.
func (g *Graph) Input(i int) Lit { return MakeLit(g.inputs[i], false) }

// InputName returns the name of the i-th primary input.
func (g *Graph) InputName(i int) string {
	if i < len(g.inNames) {
		return g.inNames[i]
	}
	return ""
}

func (g *Graph) setInputName(i int, name string) {
	for len(g.inNames) <= i {
		g.inNames = append(g.inNames, "")
	}
	g.inNames[i] = name
}

// AddOutput registers l as a primary output.
func (g *Graph) AddOutput(l Lit, name string) {
	g.outputs = append(g.outputs, l)
	g.outNames = append(g.outNames, name)
	g.fanoutOK = false
}

// Output returns the literal of the i-th primary output.
func (g *Graph) Output(i int) Lit { return g.outputs[i] }

// reserveOutputs makes room for n more primary outputs.
func (g *Graph) reserveOutputs(n int) {
	g.outputs = slices.Grow(g.outputs, n)
	g.outNames = slices.Grow(g.outNames, n)
}

// OutputName returns the name of the i-th primary output.
func (g *Graph) OutputName(i int) string { return g.outNames[i] }

// IsInput reports whether variable v is a primary input.
func (g *Graph) IsInput(v int) bool { return g.nodes[v].kind == kindInput }

// IsAnd reports whether variable v is an AND node.
func (g *Graph) IsAnd(v int) bool { return g.nodes[v].kind == kindAnd }

// Fanins returns the two fanin literals of AND variable v.
// It panics when v is not an AND node.
func (g *Graph) Fanins(v int) (Lit, Lit) {
	n := &g.nodes[v]
	if n.kind != kindAnd {
		panic(fmt.Sprintf("aig: variable %d is not an AND node", v))
	}
	return n.fan0, n.fan1
}

func (g *Graph) invalidate() {
	g.levelsOK = false
	g.fanoutOK = false
}

// SwapStrash exchanges the storage of g's and h's hash tables, so that
// graphs built one after another can share one table; h may be a zero
// Graph that only holds the storage between them. Both tables are
// emptied: each graph re-enters its nodes the next time it adds an AND,
// so no result of either graph changes.
func (g *Graph) SwapStrash(h *Graph) {
	g.strash, h.strash = h.strash[:0], g.strash[:0]
}

// strashSlot returns the table slot holding the AND of the canonically
// ordered pair (a, b), or the empty slot where that node belongs. The
// table is never more than half full, so the linear probe terminates.
func (g *Graph) strashSlot(a, b Lit) int {
	key := uint64(a)<<32 | uint64(b)
	// Fibonacci hashing, scaled to the length by a multiply-high.
	hi, _ := bits.Mul64(key*0x9E3779B97F4A7C15, uint64(len(g.strash)))
	for i := int(hi); ; i++ {
		if i == len(g.strash) {
			i = 0
		}
		v := g.strash[i]
		if v == 0 {
			return i
		}
		if n := &g.nodes[v]; n.fan0 == a && n.fan1 == b {
			return i
		}
	}
}

// growStrash sizes the table for the reservation or, past it, twice the
// ANDs, in its own storage if large enough, and re-enters every AND.
func (g *Graph) growStrash() {
	size := 2 * max(g.reserve, 2*(g.NumAnds()+1))
	if cap(g.strash) >= size {
		g.strash = g.strash[:size]
		clear(g.strash)
	} else {
		g.strash = make([]int32, size)
	}
	for v := range g.nodes {
		if n := &g.nodes[v]; n.kind == kindAnd {
			g.strash[g.strashSlot(n.fan0, n.fan1)] = int32(v)
		}
	}
}

// And returns a literal computing the conjunction of a and b, reusing an
// existing structurally identical node when one exists and folding the
// trivial cases (constants, equal and complementary fanins).
func (g *Graph) And(a, b Lit) Lit {
	// Constant and trivial folding.
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
	// Grow before probing: room for one more node at half load, so the
	// rebuilt table is strictly larger.
	if 2*(g.NumAnds()+1) > len(g.strash) {
		g.growStrash()
	}
	slot := g.strashSlot(a, b)
	if v := g.strash[slot]; v != 0 {
		return MakeLit(int(v), false)
	}
	v := len(g.nodes)
	g.nodes = append(g.nodes, node{fan0: a, fan1: b, kind: kindAnd})
	g.strash[slot] = int32(v)
	g.invalidate()
	return MakeLit(v, false)
}

// Or returns a literal computing the disjunction of a and b.
func (g *Graph) Or(a, b Lit) Lit { return g.And(a.Not(), b.Not()).Not() }

// Xor returns a literal computing a XOR b (three AND nodes).
func (g *Graph) Xor(a, b Lit) Lit {
	return g.Or(g.And(a, b.Not()), g.And(a.Not(), b))
}

// Mux returns a literal computing (sel ? t : e).
func (g *Graph) Mux(sel, t, e Lit) Lit {
	return g.Or(g.And(sel, t), g.And(sel.Not(), e))
}

// Maj returns the majority of three literals, the carry function.
func (g *Graph) Maj(a, b, c Lit) Lit {
	return g.Or(g.And(a, b), g.Or(g.And(a, c), g.And(b, c)))
}

// AndN folds And over a literal slice. An empty slice yields True.
// The reduction is balanced to keep logic depth logarithmic.
func (g *Graph) AndN(ls []Lit) Lit {
	switch len(ls) {
	case 0:
		return True
	case 1:
		return ls[0]
	}
	mid := len(ls) / 2
	return g.And(g.AndN(ls[:mid]), g.AndN(ls[mid:]))
}

// OrN folds Or over a literal slice. An empty slice yields False.
func (g *Graph) OrN(ls []Lit) Lit {
	switch len(ls) {
	case 0:
		return False
	case 1:
		return ls[0]
	}
	mid := len(ls) / 2
	return g.Or(g.OrN(ls[:mid]), g.OrN(ls[mid:]))
}

// Levels returns the logic level of every variable: inputs and the
// constant are level 0 and an AND node is one more than its deepest
// fanin. The result is memoized until the graph changes; the next call
// then recomputes into the same storage, which only rewrites existing
// levels after a Reset.
func (g *Graph) Levels() []int32 {
	if g.levelsOK {
		return g.levels
	}
	lv := slices.Grow(g.levels[:0], len(g.nodes))[:len(g.nodes)]
	clear(lv)
	for v := 1; v < len(g.nodes); v++ {
		n := &g.nodes[v]
		if n.kind != kindAnd {
			continue
		}
		l0 := lv[n.fan0.Var()]
		l1 := lv[n.fan1.Var()]
		if l1 > l0 {
			l0 = l1
		}
		lv[v] = l0 + 1
	}
	g.levels, g.levelsOK = lv, true
	return lv
}

// Depth returns the maximum logic level over the primary outputs.
func (g *Graph) Depth() int {
	lv := g.Levels()
	var d int32
	for _, o := range g.outputs {
		if l := lv[o.Var()]; l > d {
			d = l
		}
	}
	return int(d)
}

// FanoutCounts returns, for every variable, the number of fanout
// references from AND nodes and primary outputs. The result is memoized
// until the graph changes; the next call then recomputes into the same
// storage, so the old slice does not keep the old counts.
func (g *Graph) FanoutCounts() []int32 {
	if g.fanoutOK {
		return g.fanoutSize
	}
	fo := slices.Grow(g.fanoutSize[:0], len(g.nodes))[:len(g.nodes)]
	clear(fo)
	for v := 1; v < len(g.nodes); v++ {
		n := &g.nodes[v]
		if n.kind != kindAnd {
			continue
		}
		fo[n.fan0.Var()]++
		fo[n.fan1.Var()]++
	}
	for _, o := range g.outputs {
		fo[o.Var()]++
	}
	g.fanoutSize, g.fanoutOK = fo, true
	return fo
}

// Stats summarizes graph size and shape.
type Stats struct {
	Inputs  int
	Outputs int
	Ands    int
	Depth   int
}

// Stats returns size and depth statistics for the graph.
func (g *Graph) Stats() Stats {
	return Stats{
		Inputs:  g.NumInputs(),
		Outputs: g.NumOutputs(),
		Ands:    g.NumAnds(),
		Depth:   g.Depth(),
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("i/o=%d/%d ands=%d depth=%d", s.Inputs, s.Outputs, s.Ands, s.Depth)
}

// Sweep returns a copy of the graph containing only nodes reachable from
// a primary output, along with a map from old variable to new literal.
// Input and output order and names are preserved.
func (g *Graph) Sweep() (*Graph, []Lit) { return g.SweepInto(nil, nil) }

// SweepInto is Sweep building its copy in dst, which it Resets first,
// and its variable map in old2new's storage when that is large enough;
// a nil dst means a fresh graph and a nil old2new a fresh map. dst must
// not be g.
func (g *Graph) SweepInto(dst *Graph, old2new []Lit) (*Graph, []Lit) {
	if dst == g {
		panic("aig: SweepInto its own receiver")
	}
	old2new = slices.Grow(old2new[:0], len(g.nodes))[:len(g.nodes)]
	clear(old2new)
	// Mark the output cones in the map itself: a reached variable reads
	// True until it gets its new literal. Fanins precede their fanouts,
	// so one descending pass reaches every node of every cone.
	for _, o := range g.outputs {
		old2new[o.Var()] = True
	}
	kept := 0
	for v := len(g.nodes) - 1; v > 0; v-- {
		if n := &g.nodes[v]; n.kind == kindAnd && old2new[v] != False {
			kept++
			old2new[n.fan0.Var()] = True
			old2new[n.fan1.Var()] = True
		}
	}
	ng := dst
	if ng == nil {
		ng = NewSized(g.Name, len(g.inputs), kept)
	} else {
		ng.Reset(g.Name, len(g.inputs), kept)
	}
	old2new[0] = False
	// Inputs are kept even when dangling so that I/O signatures match.
	for i, v := range g.inputs {
		old2new[v] = ng.AddInput(g.InputName(i))
	}
	for v := 1; v < len(g.nodes); v++ {
		n := &g.nodes[v]
		if n.kind != kindAnd || old2new[v] == False {
			continue
		}
		f0 := old2new[n.fan0.Var()].NotIf(n.fan0.IsNeg())
		f1 := old2new[n.fan1.Var()].NotIf(n.fan1.IsNeg())
		old2new[v] = ng.And(f0, f1)
	}
	ng.reserveOutputs(len(g.outputs))
	for i, o := range g.outputs {
		ng.AddOutput(old2new[o.Var()].NotIf(o.IsNeg()), g.outNames[i])
	}
	return ng, old2new
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	ng := &Graph{
		Name:     g.Name,
		nodes:    append([]node(nil), g.nodes...),
		inputs:   append([]int(nil), g.inputs...),
		outputs:  append([]Lit(nil), g.outputs...),
		inNames:  append([]string(nil), g.inNames...),
		outNames: append([]string(nil), g.outNames...),
	}
	return ng
}

// TopoAnds calls fn for every AND variable in topological (fanin-first)
// order, passing the variable index and the two fanin literals.
func (g *Graph) TopoAnds(fn func(v int, f0, f1 Lit)) {
	for v := 1; v < len(g.nodes); v++ {
		n := &g.nodes[v]
		if n.kind == kindAnd {
			fn(v, n.fan0, n.fan1)
		}
	}
}

// InputVars returns the variable indices of the primary inputs in order.
func (g *Graph) InputVars() []int { return append([]int(nil), g.inputs...) }

// Outputs returns the primary output literals in order.
func (g *Graph) Outputs() []Lit { return append([]Lit(nil), g.outputs...) }
