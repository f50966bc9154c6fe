package synth

import (
	"edacloud/internal/aig"
	"edacloud/internal/par"
	"edacloud/internal/perf"
)

// This file holds everything a synthesis pass allocates and then
// drops. Every partition needs three var-indexed maps — the
// original-variable -> shard-literal map, the foreign-leaf mark set and
// the truth-table memo — and allocating them dense per partition made
// total shard memory O(NumVars^2 / PartitionGrain): a latent quadratic
// that only bites at million-gate scale. All three share one
// epoch-stamped backing per probe shard, reset in O(1) between
// partitions. Each probe shard also keeps its cut-enumeration storage
// (the candidate buffer and the slabs the cut lists live in), and the
// run keeps the per-variable cut-list array, one shard graph per
// partition slot and one temporary graph that the shards of a
// multi-partition pass merge into. All of it belongs to a runScratch
// that one Synthesize, RunPass or MapToCells call makes and hands down to
// every pass and the mapper: a run allocates its scratch, its cut
// storage and its pass graphs when the first pass that needs them
// grows them, not once per pass, and each partition retains only its
// own compact result. A pass sweeps its temporary into another graph:
// for every pass but the recipe's last, one of the run's two pass
// graphs, taken in turn so that a pass never writes the graph it
// reads, with the sweep's variable map and the pass's cone
// partitioning in the run's storage too. Only the recipe's result (and
// RunPass's single pass) is a fresh graph, so neither the caller's
// input nor the returned graph is ever recycled. The scratch is a
// value the call owns, not a sync.Pool or a package variable: the
// collector empties a pool when it likes, which would make a run's
// allocation depend on when it ran.

// epochStamps is the shared epoch-stamping core: a var-indexed
// membership set whose reset is O(1) (bump the epoch) instead of O(n)
// (clear the array). ttScratch, litMap and the leaf-mark set all build
// on it.
type epochStamps struct {
	epoch []uint32
	cur   uint32
}

// reset prepares the set for n variables and empties it, reporting
// whether the backing array was (re)allocated so sibling value arrays
// can grow in lockstep.
func (s *epochStamps) reset(n int) (grown bool) {
	if len(s.epoch) < n {
		s.epoch = make([]uint32, n)
		s.cur = 0
		grown = true
	}
	s.cur++
	if s.cur == 0 { // epoch counter wrapped: invalidate everything
		for i := range s.epoch {
			s.epoch[i] = 0
		}
		s.cur = 1
	}
	return grown
}

func (s *epochStamps) has(v int) bool { return s.epoch[v] == s.cur }
func (s *epochStamps) stamp(v int)    { s.epoch[v] = s.cur }

// litMap is an epoch-stamped variable -> literal map with the same
// semantics as the dense zero-initialized arrays it replaces: absent
// entries read as 0 (aig.False), which callers treat as "unmapped" for
// any variable other than the constant.
type litMap struct {
	val []aig.Lit
	st  epochStamps
}

func (m *litMap) reset(nvars int) {
	if m.st.reset(nvars) {
		m.val = make([]aig.Lit, nvars)
	}
}

func (m *litMap) get(v int) aig.Lit {
	if m.st.has(v) {
		return m.val[v]
	}
	return 0
}

func (m *litMap) set(v int, l aig.Lit) {
	m.val[v] = l
	m.st.stamp(v)
}

// shardScratch is one probe shard's scratch: the literal map, the
// foreign-leaf mark set, the truth-table memo and the cut-enumeration
// storage. forPartitions and the cut sweep hand each probe shard its
// own instance, and since a shard's partitions (or cut chunks) run on a
// single goroutine in ascending order, reuse is race-free and
// deterministic.
type shardScratch struct {
	o2n  litMap
	mark epochStamps
	tts  ttScratch
	cut  cutShard
	// Per-node temporaries of rebuildNode/buildCover (cubes, terms,
	// lits) and balanceNode (leaves), kept for their capacity.
	cubes               []cube
	terms, lits, leaves []aig.Lit
}

// runScratch is the scratch of one synthesis run: one shardScratch per
// probe shard, the cut lists of the enumeration in hand, and the pass
// graphs. Serial code — a graph's only partition, which runs inline,
// and the mapper — uses shard 0's.
type runScratch struct {
	shards [par.ProbeShards]shardScratch
	// cuts is the per-variable cut-list array; each enumeration
	// reslices it (see newCutEnum).
	cuts [][]Cut
	// parts holds one recycled shard graph per partition slot and tmp
	// the graph the shards of several partitions merge into. Both die
	// with the pass that built them: the pass result is a swept copy of
	// tmp, or of a graph's only shard.
	parts []*aig.Graph
	tmp   *aig.Graph
	// passes are the two graphs a recipe's intermediate results
	// alternate between, and dst is where the pass in hand sweeps its
	// result: one of passes, or nil for a fresh graph.
	passes [2]*aig.Graph
	dst    *aig.Graph
	// sweepMap is the storage of every pass's sweep variable map, and
	// cones that of every pass's cone partitioning.
	sweepMap []aig.Lit
	cones    aig.ConePartitioning
}

// tmpGraph empties the run's temporary graph for a graph of the given
// size, making it on first use.
func (rs *runScratch) tmpGraph(name string, inputs, ands int) *aig.Graph {
	if rs.tmp == nil {
		rs.tmp = aig.NewSized(name, inputs, ands)
	} else {
		rs.tmp.Reset(name, inputs, ands)
	}
	return rs.tmp
}

// passGraph returns the run-owned graph the i-th pass of a recipe
// sweeps its result into when a later pass reads it. Consecutive passes
// get different graphs, so a pass never writes the graph it reads.
func (rs *runScratch) passGraph(i int) *aig.Graph {
	if rs.passes[i%2] == nil {
		rs.passes[i%2] = aig.NewSized("", 0, 0)
	}
	return rs.passes[i%2]
}

// releaseForMapping drops everything the mapper does not read — the
// pass graphs, the sweep map, the partitioning and the shards' rebuild
// maps — and keeps the cut storage and shard 0's truth-table memo, so
// that the mapper's allocations do not pile onto the recipe's at the
// run's peak heap.
func (rs *runScratch) releaseForMapping() {
	keep := runScratch{cuts: rs.cuts}
	for i := range rs.shards {
		keep.shards[i].cut = rs.shards[i].cut
	}
	keep.shards[0].tts = rs.shards[0].tts
	*rs = keep
}

// forPartitions runs build over every cone partition inside an
// instrumented parallel region, handing each invocation the run's
// scratch for its probe shard and the partition's recycled shard graph,
// and reports the instructions retired in the region. Both partitioned
// paths, rewrite's and balance's, run through it.
func forPartitions(probe *perf.Probe, pool *par.Pool, rs *runScratch, n int, build func(pi int, sc *shardScratch, sg *aig.Graph, probe *perf.Probe) shardBuild) ([]shardBuild, uint64) {
	// Grow the partition slots before the region: inside it, slot pi is
	// touched only by the goroutine that builds partition pi.
	for len(rs.parts) < n {
		rs.parts = append(rs.parts, aig.NewSized("", 0, 0))
	}
	instrsBefore := probe.Instrs()
	shards := make([]shardBuild, n)
	pool.ForProbe(probe, n, 1, func(lo, hi, shard int, probe *perf.Probe) {
		sc := &rs.shards[shard]
		for pi := lo; pi < hi; pi++ {
			shards[pi] = build(pi, sc, rs.parts[pi], probe)
		}
	})
	if n <= 1 {
		// ForProbe runs a single partition inline on the parent probe:
		// that is serial work, not a parallel region.
		return shards, 0
	}
	return shards, probe.Instrs() - instrsBefore
}

// beginShard starts partition pi's private shard graph in sg, the
// partition's recycled slot: it empties sg, resets the shard's literal
// map, maps the constant and returns the foreign-leaf set, which it
// maps to placeholder inputs (ascending original-variable order). The
// only partition of a graph has no foreign leaves: its shard maps the
// primary inputs themselves, in order and by name, so that it is the
// pass's result as built. The graph is sized for the inputs and, per
// owned node, its structural copy plus one realization per cut tried
// (the losing realizations stay in the shard as dead nodes until the
// final sweep).
// The caller rebuilds the partition's owned nodes through sc.o2n and
// then compacts the result with ownedLits.
func beginShard(g *aig.Graph, cp *aig.ConePartitioning, pi int, cuts *cutEnum, k, tryCuts int, sc *shardScratch, sg *aig.Graph) []int32 {
	sc.o2n.reset(g.NumVars())
	sc.o2n.set(0, aig.False)
	if cp.NumParts() == 1 {
		sg.Reset(g.Name, g.NumInputs(), (1+tryCuts)*len(cp.Parts[pi].Nodes))
		for i, v := range g.InputVars() {
			sc.o2n.set(v, sg.AddInput(g.InputName(i)))
		}
		return nil
	}
	leafVars := partitionLeaves(g, cp, pi, cuts, k, tryCuts, &sc.mark)
	sg.Reset(g.Name, len(leafVars), (1+tryCuts)*len(cp.Parts[pi].Nodes))
	for _, lv := range leafVars {
		sc.o2n.set(int(lv), sg.AddInput(""))
	}
	return leafVars
}

// ownedLits compacts the shard's literal map into the only per-partition
// state retained until the merge: the shard literal of each owned node,
// parallel to cp.Parts[pi].Nodes. Its size is the partition's, not the
// graph's.
func ownedLits(cp *aig.ConePartitioning, pi int, o2n *litMap) []aig.Lit {
	part := cp.Parts[pi]
	out := make([]aig.Lit, len(part.Nodes))
	for i, v := range part.Nodes {
		out[i] = o2n.get(int(v))
	}
	return out
}
