package synth

import (
	"slices"

	"edacloud/internal/aig"
	"edacloud/internal/par"
	"edacloud/internal/perf"
)

// This file holds everything a synthesis pass allocates and then
// drops. Every partition needs a var-indexed original-variable ->
// shard-literal map, which also marks its foreign leaves, and making it
// dense per partition made total shard memory O(NumVars^2 /
// PartitionGrain): a latent quadratic that only bites at million-gate
// scale. It is one epoch-stamped array per goroutine of a region, reset
// in O(1) between partitions. Each probe shard keeps its truth-table
// memo, its cut storage, the arena of its shard graphs and its
// partitions' results, and the run keeps the per-variable cut-list
// array, one shard graph per partition slot and one temporary graph
// that a multi-partition pass merges into. All of it belongs to a
// runScratch that one Synthesize, RunPass or MapToCells call makes,
// sizes once for the recipe's heaviest pass (see reserve) and hands
// down to every pass and the mapper. A pass sweeps its temporary into
// another graph:
// for every pass but the recipe's last, one of the run's two pass
// graphs, taken in turn so that a pass never writes the graph it
// reads, with the sweep's variable map and the pass's cone
// partitioning in the run's storage too. Only the recipe's result (and
// RunPass's single pass) is a fresh graph, so neither the caller's
// input nor the returned graph is ever recycled. The scratch is a
// value the call owns, not a sync.Pool or a package variable: the
// collector empties a pool when it likes, which would make a run's
// allocation depend on when it ran.

// litMap is an epoch-stamped variable -> literal map with the same
// semantics as the dense zero-initialized arrays it replaces: absent
// entries read as 0 (aig.False), which callers treat as "unmapped" for
// any variable other than the constant. Its reset is O(1) (bump the
// epoch) instead of O(n) (clear the array).
type litMap struct {
	val   []aig.Lit
	epoch []uint32 // val[v] is set when epoch[v] == cur
	cur   uint32
}

func (m *litMap) reset(nvars int) {
	if len(m.epoch) < nvars {
		m.val = make([]aig.Lit, nvars)
		m.epoch = make([]uint32, nvars)
		m.cur = 0
	}
	m.cur++
	if m.cur == 0 { // epoch counter wrapped: invalidate everything
		clear(m.epoch)
		m.cur = 1
	}
}

func (m *litMap) has(v int) bool { return m.epoch[v] == m.cur }

func (m *litMap) get(v int) aig.Lit {
	if m.has(v) {
		return m.val[v]
	}
	return 0
}

func (m *litMap) set(v int, l aig.Lit) {
	m.val[v] = l
	m.epoch[v] = m.cur
}

// shardScratch is one probe shard's scratch: its goroutine's literal
// map, the truth-table memo, the cut storage, and its partitions' shard
// graphs and results. A shard's partitions (or cut chunks) run on one
// goroutine in ascending order, so reuse is race-free and deterministic.
type shardScratch struct {
	o2n *litMap
	tts ttScratch
	cut cutShard
	// arena, leafVars and owned hold the shard graphs and results until
	// the merge; forPartitions rewinds them each pass.
	arena    aig.Arena
	leafVars aig.Slab[int32]
	owned    aig.Slab[aig.Lit]
	// Per-partition and per-node temporaries of partitionLeaves
	// (foreign), balancePartition (lvl), rebuildNode/buildCover (cubes,
	// terms, lits) and balanceNode (leaves), kept for their capacity.
	foreign, lvl        []int32
	cubes               []cube
	terms, lits, leaves []aig.Lit
}

// runScratch is the scratch of one synthesis run: per probe shard a
// shardScratch, per goroutine of a region a literal map and the hash
// table its shard graphs borrow, the cut lists in hand and the pass
// graphs. Serial code uses index 0; tables[0] also merges and sweeps.
type runScratch struct {
	shards          [par.ProbeShards]shardScratch
	lits            [par.ProbeShards]litMap
	tables          [par.ProbeShards]aig.Graph
	mult, mergeAnds int
	// cuts is the per-variable cut-list array; each enumeration
	// reslices it (see newCutEnum).
	cuts []cutList
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
	// The merge's storage: the shard results, the source-variable map,
	// one shard's input map and Append's variable map.
	builds                  []shardBuild
	final, inMap, appendMap []aig.Lit
	// The cut sweep's level buckets (see cutEnum.run).
	levelStart, levelOrder, levelFill []int32
}

// grow reslices *buf to n entries, reallocating only when its capacity
// is short, and returns it; the entries are not cleared.
func grow[T any](buf *[]T, n int) []T {
	*buf = slices.Grow((*buf)[:0], n)[:n]
	return *buf
}

// reserve sizes the run's storage for passes over g before any is
// filled, for mult ANDs per owned node (one per node and cut that the
// heaviest pass tries): the goroutines' tables for each region's
// largest partition, the merge graph and tables[0] for all of g, and
// the pass graphs for g.
func (rs *runScratch) reserve(g *aig.Graph, passes []PassKind) {
	for _, p := range passes {
		rs.mult = max(rs.mult, 1+tries[p])
	}
	rs.mergeAnds = rs.mult * g.NumAnds() * 3 / 2 // half again, as ResetIn
	rs.tables[0].ReserveStrash(rs.mult * g.NumAnds())
	for i := range min(2, len(passes)-1) {
		rs.passes[i] = aig.NewSized("", g.NumInputs(), g.NumAnds())
	}
}

// sweepDst returns the graph the pass in hand sweeps its result into:
// rs.dst, or a fresh graph for the recipe's result.
func (rs *runScratch) sweepDst() *aig.Graph {
	if rs.dst != nil {
		return rs.dst
	}
	return aig.NewSized("", 0, 0)
}

// releaseForMapping drops everything the mapper does not read — the
// pass graphs, the sweep map, the partitioning and the shards' rebuild
// maps — and keeps the cut storage and shard 0's truth-table memo, so
// that the mapper's allocations do not pile onto the recipe's at the
// run's peak heap.
func (rs *runScratch) releaseForMapping() {
	keep := runScratch{cuts: rs.cuts, levelStart: rs.levelStart, levelOrder: rs.levelOrder, levelFill: rs.levelFill}
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
func forPartitions(probe *perf.Probe, pool *par.Pool, rs *runScratch, cp *aig.ConePartitioning, build func(pi int, sc *shardScratch, sg *aig.Graph, probe *perf.Probe) shardBuild) ([]shardBuild, uint64) {
	// Grow the slots, and the tables for the largest partition, before
	// the region: inside it, only partition pi's goroutine touches slot pi.
	n, most := cp.NumParts(), 0
	for len(rs.parts) < n {
		rs.parts = append(rs.parts, new(aig.Graph))
	}
	for _, part := range cp.Parts {
		most = max(most, len(part.Nodes))
	}
	for w := range min(pool.Workers(), par.ProbeShards, n) {
		rs.tables[w].ReserveStrash(rs.mult * most)
	}
	for i := range rs.shards {
		rs.shards[i].arena.Rewind()
		rs.shards[i].leafVars.Rewind()
		rs.shards[i].owned.Rewind()
	}
	instrsBefore := probe.Instrs()
	shards := grow(&rs.builds, n)
	pool.ForProbe(probe, n, 1, func(lo, hi, shard, worker int, probe *perf.Probe) {
		sc := &rs.shards[shard]
		sc.o2n = &rs.lits[worker]
		for pi := lo; pi < hi; pi++ {
			sg := rs.parts[pi]
			sg.SwapStrash(&rs.tables[worker])
			shards[pi] = build(pi, sc, sg, probe)
			sg.SwapStrash(&rs.tables[worker])
			sc.arena.Close(sg)
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
		sg.ResetIn(&sc.arena, g.Name, g.NumInputs(), (1+tryCuts)*len(cp.Parts[pi].Nodes))
		for i := range g.NumInputs() {
			sc.o2n.set(g.Input(i).Var(), sg.AddInput(g.InputName(i)))
		}
		return nil
	}
	leafVars := partitionLeaves(g, cp, pi, cuts, k, tryCuts, sc)
	sg.ResetIn(&sc.arena, g.Name, len(leafVars), (1+tryCuts)*len(cp.Parts[pi].Nodes))
	for _, lv := range leafVars {
		sc.o2n.set(int(lv), sg.AddInput(""))
	}
	return leafVars
}

// ownedLits compacts the shard's literal map into the only per-partition
// state retained until the merge: the shard literal of each owned node,
// parallel to cp.Parts[pi].Nodes, carved from the shard's slab. Its
// size is the partition's, not the graph's.
func ownedLits(cp *aig.ConePartitioning, pi int, sc *shardScratch) []aig.Lit {
	part := cp.Parts[pi]
	out := sc.owned.Take(len(part.Nodes))
	for i, v := range part.Nodes {
		out[i] = sc.o2n.get(int(v))
	}
	return out
}
