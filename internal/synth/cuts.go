package synth

import (
	"edacloud/internal/aig"
	"edacloud/internal/ints"
	"edacloud/internal/par"
	"edacloud/internal/perf"
)

// Cut is a k-feasible cut of an AIG node: a set of leaf variables such
// that every path from the node to the inputs crosses a leaf.
type Cut struct {
	Leaves []int32 // sorted variable indices
}

// cutEnum enumerates priority cuts: every node keeps at most maxCuts
// cuts of at most k leaves, built by merging fanin cuts, preferring
// fewer leaves. The trivial cut {v} is always included (last).
//
// Enumeration proceeds level by level: a node's cuts depend only on
// its fanins' cuts, which live at strictly lower levels, so all nodes
// of one level are independent and run in parallel on the pool.
type cutEnum struct {
	g       *aig.Graph
	k       int
	maxCuts int
	probe   *perf.Probe
	pool    *par.Pool
	cuts    [][]Cut
	// rs lends each probe shard its merge scratch and cut storage
	// (rs.shards[i].cut). A shard's chunks run one at a time on one
	// goroutine, so enumNode needs no lock and no allocation per node
	// or per cut.
	rs *runScratch
	// parInstrs counts the instructions recorded in levels wide enough
	// to split into multiple chunks — the genuinely parallel share of
	// the enumeration. Narrow levels run single-chunk and serialize at
	// the per-level barrier, so their work is excluded. parChunks is
	// the widest such level's chunk count, the enumeration's own
	// concurrency bound.
	parInstrs uint64
	parChunks int
}

// cutGrain is the per-chunk node count of the intra-level parallel
// sweep. A fixed constant keeps the probe-shard layout — and with it
// the simulated counters — machine-independent.
const cutGrain = 32

// newCutEnum enumerates g's cuts into rs's cut storage. The storage is
// rewound, not reallocated, so the cut lists of the run's previous
// enumeration are overwritten: a pass drops its cutEnum before the next
// one starts.
func newCutEnum(g *aig.Graph, k, maxCuts int, probe *perf.Probe, pool *par.Pool, rs *runScratch) *cutEnum {
	n := g.NumVars()
	if cap(rs.cuts) < n {
		rs.cuts = make([][]Cut, n)
	}
	for i := range rs.shards {
		rs.shards[i].cut.reset(k, maxCuts)
	}
	// Every variable is the constant, an input or an AND, so run
	// overwrites every entry of the resliced array.
	ce := &cutEnum{g: g, k: k, maxCuts: maxCuts, probe: probe, pool: pool, cuts: rs.cuts[:n], rs: rs}
	ce.run()
	return ce
}

// Cuts returns the cut list of variable v.
func (ce *cutEnum) Cuts(v int) []Cut { return ce.cuts[v] }

func (ce *cutEnum) run() {
	g := ce.g
	// Constant node and inputs have only the trivial cut.
	sh := &ce.rs.shards[0].cut
	ce.cuts[0] = append(sh.cuts.take(1)[:0], sh.trivialCut(0))
	for _, v := range g.InputVars() {
		ce.cuts[v] = append(sh.cuts.take(1)[:0], sh.trivialCut(v))
	}
	// Bucket AND nodes by logic level, each bucket in topological
	// (ascending-variable) order: a counting sort into one array, level
	// l's nodes at order[start[l]:start[l+1]].
	levels := g.Levels()
	var maxLv int32
	for _, l := range levels {
		if l > maxLv {
			maxLv = l
		}
	}
	start := make([]int32, maxLv+2)
	g.TopoAnds(func(v int, f0, f1 aig.Lit) { start[levels[v]+1]++ })
	for l := 1; l < len(start); l++ {
		start[l] += start[l-1]
	}
	order := make([]int32, g.NumAnds())
	fill := append([]int32(nil), start...)
	g.TopoAnds(func(v int, f0, f1 aig.Lit) {
		order[fill[levels[v]]] = int32(v)
		fill[levels[v]]++
	})
	var nodes []int32 // the level in hand; one closure serves every level
	enumChunk := func(lo, hi, shard int, probe *perf.Probe) {
		sh := &ce.rs.shards[shard].cut
		for _, v := range nodes[lo:hi] {
			ce.enumNode(int(v), probe, sh)
		}
	}
	for l := 0; l+1 < len(start); l++ {
		nodes = order[start[l]:start[l+1]]
		if len(nodes) == 0 {
			continue
		}
		before := ce.probe.Instrs()
		ce.pool.ForProbe(ce.probe, len(nodes), cutGrain, enumChunk)
		if chunks := ints.CeilDiv(len(nodes), cutGrain); chunks > 1 {
			ce.parInstrs += ce.probe.Instrs() - before
			ce.parChunks = max(ce.parChunks, chunks)
		}
	}
}

// enumNode builds the cut list of AND node v from its fanins' cuts:
// every pairwise leaf-set union of at most k leaves, duplicates
// dropped, the maxCuts smallest kept with ties in merge order, then
// the trivial cut. It writes only ce.cuts[v] and sh, the scratch of the
// shard it runs on, so nodes of one level can run concurrently.
func (ce *cutEnum) enumNode(v int, probe *perf.Probe, sh *cutShard) {
	f0, f1 := ce.g.Fanins(v)
	probe.LoadHot(rgCut, uint64(v))
	c0 := ce.cuts[f0.Var()]
	c1 := ce.cuts[f1.Var()]
	k := ce.k
	// Candidate i's leaves are sh.cand[i*k : i*k+sh.size[i]]. A failed
	// or duplicate merge leaves its slot to the next pair.
	cands := 0
	for _, a := range c0 {
		for _, b := range c1 {
			leaves := sh.cand[cands*k : cands*k+k]
			n, ok := mergeLeaves(leaves, a.Leaves, b.Leaves)
			probe.Branch(brCutMerge, ok)
			// Leaf-set union, dedup hashing and cut-list bookkeeping
			// dominate enumeration cost.
			probe.Ops(240)
			probe.LoopBranches(6)
			probe.LoadHot(rgCut, uint64(f0.Var()))
			if !ok || sh.hasCandidate(cands, k, leaves[:n]) {
				continue
			}
			sh.size[cands] = n
			cands++
		}
	}
	// Fewest leaves first, merge order within one leaf count: what a
	// stable sort by leaf count followed by truncation would keep.
	keep := min(cands, ce.maxCuts)
	out := sh.cuts.take(keep + 1)[:0]
	for n := 1; n <= k && len(out) < keep; n++ {
		for i := 0; i < cands && len(out) < keep; i++ {
			if sh.size[i] == n {
				leaves := sh.leaves.take(n)
				copy(leaves, sh.cand[i*k:])
				out = append(out, Cut{Leaves: leaves})
			}
		}
	}
	// Trivial cut last so matching prefers structural cuts.
	ce.cuts[v] = append(out, sh.trivialCut(v))
	probe.Ops(len(c0)*len(c1) + 4)
}

// mergeLeaves unions two sorted leaf sets into dst, returning the
// union's size; it fails when the union exceeds len(dst).
func mergeLeaves(dst, a, b []int32) (int, bool) {
	n, i, j := 0, 0, 0
	for i < len(a) || j < len(b) {
		var next int32
		switch {
		case i >= len(a):
			next = b[j]
			j++
		case j >= len(b):
			next = a[i]
			i++
		case a[i] < b[j]:
			next = a[i]
			i++
		case a[i] > b[j]:
			next = b[j]
			j++
		default:
			next = a[i]
			i++
			j++
		}
		if n == len(dst) {
			return 0, false
		}
		dst[n] = next
		n++
	}
	return n, true
}

// cutShard is one probe shard's enumeration state: the candidate cuts
// of the node in hand, and the storage the finished cut lists live in.
type cutShard struct {
	cand []int32 // candidate leaf sets, k slots each
	size []int   // leaf count per candidate
	// Finished lists and their leaf sets are carved out of chunks, so a
	// node costs no allocation of its own; the chunks belong to the run
	// and are handed out again by every later enumeration.
	cuts   slab[Cut]
	leaves slab[int32]
}

// reset prepares the shard for an enumeration of at most maxCuts cuts
// of at most k leaves per node: it grows the candidate buffer when this
// enumeration needs more room than every earlier one, and rewinds the
// slabs.
func (sh *cutShard) reset(k, maxCuts int) {
	// A cut list holds at most maxCuts+1 cuts, so a node has at most
	// that many squared candidates.
	most := (maxCuts + 1) * (maxCuts + 1)
	if len(sh.size) < most {
		sh.size = make([]int, most)
	}
	if len(sh.cand) < most*k {
		sh.cand = make([]int32, most*k)
	}
	sh.cuts.rewind()
	sh.leaves.rewind()
}

// hasCandidate reports whether leaves equals one of the first n
// candidates (at most (maxCuts+1)^2 of at most k leaves, so a scan is
// cheaper than any index).
func (sh *cutShard) hasCandidate(n, k int, leaves []int32) bool {
	for i := 0; i < n; i++ {
		if sh.size[i] == len(leaves) && sameLeaves(sh.cand[i*k:i*k+len(leaves)], leaves) {
			return true
		}
	}
	return false
}

// trivialCut returns the cut {v}.
func (sh *cutShard) trivialCut(v int) Cut {
	leaves := sh.leaves.take(1)
	leaves[0] = int32(v)
	return Cut{Leaves: leaves}
}

// slab hands out small slices carved from geometrically growing
// chunks. Every slice is capped at its length, so appending to one can
// never run into its neighbour. A slab keeps its chunks: after rewind
// it hands them out again, in order, and allocates only once they are
// used up.
type slab[T any] struct {
	chunks [][]T
	used   int // chunks handed out since the last rewind
	free   []T
}

const (
	slabMinChunk = 256
	slabMaxChunk = 1 << 14
)

func (s *slab[T]) rewind() { s.used, s.free = 0, nil }

func (s *slab[T]) take(n int) []T {
	for len(s.free) < n {
		if s.used == len(s.chunks) {
			size := slabMinChunk
			if last := len(s.chunks) - 1; last >= 0 {
				size = min(2*len(s.chunks[last]), slabMaxChunk)
			}
			s.chunks = append(s.chunks, make([]T, max(size, n)))
		}
		s.free = s.chunks[s.used]
		s.used++
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

func sameLeaves(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if b[i] != v {
			return false
		}
	}
	return true
}

// ttScratch is a reusable truth-table memo keyed by node id, built on
// the shared epoch-stamping core (scratch.go): reset is O(1), so the
// innermost mapping loop neither allocates a map per cut nor clears an
// array per call.
type ttScratch struct {
	tt []uint64
	st epochStamps
}

func (s *ttScratch) reset(nvars int) {
	if s.st.reset(nvars) {
		s.tt = make([]uint64, nvars)
	}
}

func (s *ttScratch) get(v int) (uint64, bool) {
	if s.st.has(v) {
		return s.tt[v], true
	}
	return 0, false
}

func (s *ttScratch) set(v int, tt uint64) {
	s.tt[v] = tt
	s.st.stamp(v)
}

// cutTT computes the truth table of variable root over the cut leaves
// (leaf i is truth-table variable i). The cut must be valid: every
// cone path from root terminates at a leaf. sc is the caller's
// reusable memo scratch.
func cutTT(g *aig.Graph, root int, leaves []int32, probe *perf.Probe, sc *ttScratch) uint64 {
	n := len(leaves)
	sc.reset(g.NumVars())
	sc.set(0, 0) // constant-false node
	for i, l := range leaves {
		sc.set(int(l), ttVar(i, n))
	}
	return sc.eval(g, root, n, probe)
}

// eval returns the n-variable truth table of v, memoizing every cone
// node it visits.
func (s *ttScratch) eval(g *aig.Graph, v, n int, probe *perf.Probe) uint64 {
	if tt, ok := s.get(v); ok {
		return tt
	}
	probe.LoadHot(rgNode, uint64(v))
	probe.LoopBranches(2)
	f0, f1 := g.Fanins(v)
	t0 := s.eval(g, f0.Var(), n, probe)
	if f0.IsNeg() {
		t0 = ttNot(t0, n)
	}
	t1 := s.eval(g, f1.Var(), n, probe)
	if f1.IsNeg() {
		t1 = ttNot(t1, n)
	}
	tt := t0 & t1
	s.set(v, tt)
	return tt
}
