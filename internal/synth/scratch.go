package synth

import (
	"edacloud/internal/aig"
	"edacloud/internal/par"
	"edacloud/internal/perf"
)

// This file holds the var-indexed scratch of the cone-parallel rebuild
// paths. Every partition needs three var-indexed maps — the
// original-variable -> shard-literal map, the foreign-leaf mark set and
// the truth-table memo — and allocating them dense per partition made
// total shard memory O(NumVars^2 / PartitionGrain): a latent quadratic
// that only bites at million-gate scale. All three share one
// epoch-stamped backing per probe shard, reset in O(1) between
// partitions, and the shards' backings belong to a runScratch that one
// Synthesize, Optimize or RunPass call makes and hands down to every
// pass and the mapper: a run allocates O(ProbeShards * NumVars) scratch
// once, not once per pass, and each partition retains only its own
// compact result. The scratch is a value the call owns, not a
// sync.Pool or a package variable: the collector empties a pool when it
// likes, which would make a run's allocation depend on when it ran.

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

// shardScratch is one probe shard's rebuild scratch: the literal map,
// the foreign-leaf mark set and the truth-table memo. forPartitions
// hands each probe shard its own instance, and since a shard's
// partitions run on a single goroutine in ascending order, reuse is
// race-free and deterministic.
type shardScratch struct {
	o2n  litMap
	mark epochStamps
	tts  ttScratch
	// Per-node temporaries of rebuildNode/buildCover (cubes, terms,
	// lits) and balanceNode (leaves), kept for their capacity.
	cubes               []cube
	terms, lits, leaves []aig.Lit
}

// runScratch is the scratch of one synthesis run, one shardScratch per
// probe shard. Serial code — the single-cone paths and the mapper —
// uses shard 0's.
type runScratch [par.ProbeShards]shardScratch

// forPartitions runs build over every cone partition inside an
// instrumented parallel region, handing each invocation the run's
// scratch for its probe shard, and reports the instructions retired in
// the region. It is the one shared driver of the rewrite and balance
// partitioned paths.
func forPartitions(probe *perf.Probe, pool *par.Pool, rs *runScratch, n int, build func(pi int, sc *shardScratch, probe *perf.Probe) shardBuild) ([]shardBuild, uint64) {
	instrsBefore := probe.Counters().Instrs
	shards := make([]shardBuild, n)
	pool.ForProbe(probe, n, 1, func(lo, hi, shard int, probe *perf.Probe) {
		sc := &rs[shard]
		for pi := lo; pi < hi; pi++ {
			shards[pi] = build(pi, sc, probe)
		}
	})
	return shards, probe.Counters().Instrs - instrsBefore
}

// beginShard starts partition pi's private shard graph: it collects the
// foreign-leaf set, resets the shard's literal map and maps the
// constant and the placeholder inputs (ascending original-variable
// order). The graph is sized for the leaves and, per owned node, its
// structural copy plus one realization per cut tried (the losing
// realizations stay in the shard as dead nodes until the final sweep).
// The caller rebuilds the partition's owned nodes through sc.o2n and
// then compacts the result with ownedLits.
func beginShard(g *aig.Graph, cp *aig.ConePartitioning, pi int, cuts *cutEnum, k, tryCuts int, sc *shardScratch) (*aig.Graph, []int32) {
	leafVars := partitionLeaves(g, cp, pi, cuts, k, tryCuts, &sc.mark)
	sg := aig.NewSized(g.Name, len(leafVars), (1+tryCuts)*len(cp.Parts[pi].Nodes))
	sc.o2n.reset(g.NumVars())
	sc.o2n.set(0, aig.False)
	for _, lv := range leafVars {
		sc.o2n.set(int(lv), sg.AddInput(""))
	}
	return sg, leafVars
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
