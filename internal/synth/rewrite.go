package synth

import (
	"slices"

	"edacloud/internal/aig"
	"edacloud/internal/ints"
	"edacloud/internal/par"
	"edacloud/internal/perf"
)

// PartitionGrain is the per-partition AND-node target of cone-parallel
// rebuilds (rewrite, refactor, balance). It is a fixed constant — not a
// function of the worker count — so the partitioning, the results and
// the probe-shard layout are identical on every machine and for every
// pool size.
const PartitionGrain = 96

// Rewrite performs cut-based resubstitution: every node's 4-feasible
// cuts are evaluated as truth tables, an irredundant sum-of-products
// implementation is rebuilt over the cut leaves in the output graph,
// and the cheapest realization (measured in actually-added nodes,
// strashing included) wins. Dead logic left behind by replaced
// realizations is swept at the end.
//
// Multi-cone graphs are rebuilt cone-parallel over a partitioned
// strash: see rebuildWithCuts.
func Rewrite(g *aig.Graph, probe *perf.Probe) *aig.Graph {
	ng, _ := rewritePool(g, probe, par.Default(), new(runScratch))
	return ng
}

// rewritePool is Rewrite with an explicit worker pool, also reporting
// the pass's parallel structure.
func rewritePool(g *aig.Graph, probe *perf.Probe, pool *par.Pool, rs *runScratch) (*aig.Graph, passStats) {
	return rebuildWithCuts(g, probe, pool, rs, 4, 6, 2, brRewriteGain)
}

// Refactor is Rewrite with one large cut per node (up to 6 leaves),
// the classical coarse-grained companion pass: it collapses bigger
// cones and resynthesizes them from their ISOP factorization.
func Refactor(g *aig.Graph, probe *perf.Probe) *aig.Graph {
	ng, _ := refactorPool(g, probe, par.Default(), new(runScratch))
	return ng
}

// refactorPool is Refactor with an explicit worker pool, also
// reporting the pass's parallel structure.
func refactorPool(g *aig.Graph, probe *perf.Probe, pool *par.Pool, rs *runScratch) (*aig.Graph, passStats) {
	return rebuildWithCuts(g, probe, pool, rs, 6, 4, 1, brRefactorGain)
}

// passStats describes the parallel structure of one executed pass: the
// number of independent work units its widest parallel region offered
// (cone partitions or cut-sweep chunks, whichever is larger) and how
// many instructions it retired inside parallel regions. Optimize feeds
// both into the phase record so the machine model's Amdahl scaling
// reflects the measured split.
type passStats struct {
	chunks         int
	parallelInstrs uint64
}

// rebuildWithCuts reconstructs g node by node, trying up to tryCuts
// non-trivial cuts of size <= k per node and keeping the cheapest
// realization.
//
// Graphs whose outputs partition into more than one cone group are
// rebuilt cone-parallel: each partition resynthesizes its owned nodes
// into a private shard graph with its own structural hash table,
// referencing foreign nodes (owned by lower partitions) through
// placeholder inputs; the shards then merge into the output graph in
// ascending partition order, so the result is bit-identical for every
// worker count. The partitioned path may differ structurally from the
// single-strash serial path (each shard measures realization cost
// against its own table), but never functionally.
func rebuildWithCuts(g *aig.Graph, probe *perf.Probe, pool *par.Pool, rs *runScratch, k, maxCuts, tryCuts int, brSite uint64) (*aig.Graph, passStats) {
	cuts := newCutEnum(g, k, maxCuts, probe, pool)
	parInstrs := cuts.parInstrs

	// The phase's chunk bound covers both parallel regions: the cut
	// sweep's widest level and the partition rebuilds. On the serial
	// (single-partition) path the cut sweep is the only parallel work,
	// so its chunk count keeps the measured fraction scalable instead
	// of being zeroed by chunks=1.
	cp := partitionAccounted(g, probe)
	chunks := ints.Max(cp.NumParts(), cuts.parChunks)
	if cp.NumParts() <= 1 {
		return rebuildSerial(g, probe, cuts, k, tryCuts, brSite, &rs[0]), passStats{chunks: chunks, parallelInstrs: parInstrs}
	}

	shards, rebuildInstrs := forPartitions(probe, pool, rs, cp.NumParts(), func(pi int, sc *shardScratch, probe *perf.Probe) shardBuild {
		return rebuildPartition(g, cp, pi, cuts, k, tryCuts, brSite, sc, probe)
	})
	parInstrs += rebuildInstrs

	ng := mergeShards(g, cp, shards, probe)
	return ng, passStats{chunks: chunks, parallelInstrs: parInstrs}
}

// rebuildSerial is the single-cone path: one output graph, one strash
// table, nodes visited in global topological order.
func rebuildSerial(g *aig.Graph, probe *perf.Probe, cuts *cutEnum, k, tryCuts int, brSite uint64, sc *shardScratch) *aig.Graph {
	ng := aig.New(g.Name)
	sc.o2n.reset(g.NumVars())
	sc.o2n.set(0, aig.False)
	for i, v := range g.InputVars() {
		sc.o2n.set(v, ng.AddInput(g.InputName(i)))
	}
	rb := &rebuilder{g: g, ng: ng, sc: sc, cuts: cuts, k: k, tryCuts: tryCuts, brSite: brSite}
	g.TopoAnds(func(v int, f0, f1 aig.Lit) {
		rb.rebuildNode(v, f0, f1, probe)
	})
	for i, o := range g.Outputs() {
		ng.AddOutput(sc.o2n.get(o.Var()).NotIf(o.IsNeg()), g.OutputName(i))
	}
	return sweepAccounted(ng, g.Name, probe)
}

// partitionAccounted partitions the cones, charging the serial DFS
// marking sweep to the probe.
func partitionAccounted(g *aig.Graph, probe *perf.Probe) *aig.ConePartitioning {
	probe.Ops(6 * g.NumVars())
	return g.PartitionCones(PartitionGrain)
}

// shardBuild is one partition's resynthesis product: the private shard
// graph, the original variables backing its placeholder inputs (in
// input order), and the shard literal of each owned node, parallel to
// the partition's Nodes list. All three are proportional to the
// partition, not the graph — the pooled var-indexed scratch is handed
// back to the worker as soon as the partition finishes.
type shardBuild struct {
	sg       *aig.Graph
	leafVars []int32
	owned    []aig.Lit
}

// rebuildPartition resynthesizes the nodes owned by partition pi into
// a fresh shard graph against a private strash table. Foreign
// references — primary inputs and AND nodes owned by lower partitions,
// whether direct fanins or cut leaves — become placeholder inputs, in
// ascending original-variable order. The function reads g and the cut
// lists only (both frozen before the parallel region), so partitions
// are safe to run concurrently.
func rebuildPartition(g *aig.Graph, cp *aig.ConePartitioning, pi int, cuts *cutEnum, k, tryCuts int, brSite uint64, sc *shardScratch, probe *perf.Probe) shardBuild {
	sg, leafVars := beginShard(g, cp, pi, cuts, k, tryCuts, sc)
	rb := &rebuilder{g: g, ng: sg, sc: sc, cuts: cuts, k: k, tryCuts: tryCuts, brSite: brSite}
	for _, v := range cp.Parts[pi].Nodes {
		f0, f1 := g.Fanins(int(v))
		rb.rebuildNode(int(v), f0, f1, probe)
	}
	return shardBuild{sg: sg, leafVars: leafVars, owned: ownedLits(cp, pi, &sc.o2n)}
}

// partitionLeaves collects, in ascending order, every variable that
// partition pi references without owning: primary inputs and AND nodes
// of lower partitions, reachable either as direct fanins or as cut
// leaves (cuts is nil for balancing, which only references fanins).
// Only the cuts rebuildNode can actually try matter — the first
// tryCuts usable ones per node, a deterministic prefix independent of
// build state — so the reference sets stay small. The constant node is
// excluded — shards map it directly. Marked vars are gathered during
// marking and sorted, so the cost scales with the partition's
// reference set, not the whole graph; mark is the caller's pooled
// epoch-stamped set, reset here in O(1).
func partitionLeaves(g *aig.Graph, cp *aig.ConePartitioning, pi int, cuts *cutEnum, k, tryCuts int, mark *epochStamps) []int32 {
	mark.reset(g.NumVars())
	var out []int32
	foreign := func(u int) {
		if u != 0 && cp.Owner[u] != int32(pi) && !mark.has(u) {
			mark.stamp(u)
			out = append(out, int32(u))
		}
	}
	for _, v := range cp.Parts[pi].Nodes {
		f0, f1 := g.Fanins(int(v))
		foreign(f0.Var())
		foreign(f1.Var())
		if cuts == nil {
			continue
		}
		tried := 0
		for _, c := range cuts.Cuts(int(v)) {
			if tried >= tryCuts {
				break
			}
			if !usableCut(c.Leaves, int(v), k) {
				continue
			}
			tried++
			for _, l := range c.Leaves {
				foreign(int(l))
			}
		}
	}
	slices.Sort(out)
	return out
}

// mergeShards folds the partition shards into one output graph in
// ascending partition order: each shard's placeholder inputs map to
// the final literals of already-merged partitions (or primary inputs),
// and its nodes re-strash against the accumulated table, deduplicating
// logic that distinct shards realized identically. The merge order is
// fixed, so the merged graph is independent of which worker built
// which shard. The serial merge cost is recorded on the parent probe —
// it is the non-scaling portion of a cone-parallel pass.
func mergeShards(g *aig.Graph, cp *aig.ConePartitioning, shards []shardBuild, probe *perf.Probe) *aig.Graph {
	// Room for every shard node: the merge can only deduplicate.
	ands := 0
	for pi := range shards {
		ands += shards[pi].sg.NumAnds()
	}
	ng := aig.NewSized(g.Name, g.NumInputs(), ands)
	final := make([]aig.Lit, g.NumVars())
	final[0] = aig.False
	for i, v := range g.InputVars() {
		final[v] = ng.AddInput(g.InputName(i))
	}
	for pi := range shards {
		sb := &shards[pi]
		inMap := make([]aig.Lit, len(sb.leafVars))
		for i, lv := range sb.leafVars {
			inMap[i] = final[lv]
		}
		before := ng.NumVars()
		m := ng.Append(sb.sg, inMap)
		// Replay the merge's strash traffic: every shard node probes the
		// accumulated hash table with its mapped fanin pair, and the
		// records the append actually created are compulsory misses.
		sb.sg.TopoAnds(func(v int, f0, f1 aig.Lit) {
			f0m := m[f0.Var()].NotIf(f0.IsNeg())
			f1m := m[f1.Var()].NotIf(f1.IsNeg())
			probe.LoadHot(rgNode, uint64(v))
			probe.LoadHot(rgStrash, strashIdx(uint64(f0m)<<32|uint64(f1m)))
			probe.Ops(10)
			probe.LoopBranches(2)
		})
		probe.LoadCold((ng.NumVars() - before) / 4)
		for i, v := range cp.Parts[pi].Nodes {
			sl := sb.owned[i]
			final[v] = m[sl.Var()].NotIf(sl.IsNeg())
		}
	}
	for i, o := range g.Outputs() {
		ng.AddOutput(final[o.Var()].NotIf(o.IsNeg()), g.OutputName(i))
	}
	return sweepAccounted(ng, g.Name, probe)
}

// sweepAccounted runs the final dead-node sweep, charging its serial
// full-graph copy to the probe: one node record touch and a handful of
// bookkeeping instructions per variable.
func sweepAccounted(ng *aig.Graph, name string, probe *perf.Probe) *aig.Graph {
	probe.Ops(4 * ng.NumVars())
	probe.LoadCold(ng.NumVars() / 8)
	swept, _ := ng.Sweep()
	swept.Name = name
	return swept
}

// rebuilder carries the shared state of one rebuild target (the whole
// graph on the serial path, one shard on the partitioned path). sc
// holds the old-to-new literal map and every per-node temporary.
type rebuilder struct {
	g, ng   *aig.Graph
	sc      *shardScratch
	cuts    *cutEnum
	k       int
	tryCuts int
	brSite  uint64
	// coldCredit batches compulsory-miss accounting: fresh node records
	// are one cache line per four 16-byte records.
	coldCredit int
}

func (rb *rebuilder) coldNodes(n int, probe *perf.Probe) {
	rb.coldCredit += n
	if rb.coldCredit >= 4 {
		probe.LoadCold(rb.coldCredit / 4)
		rb.coldCredit %= 4
	}
}

// usableCut reports whether a cut is a legal resynthesis candidate for
// node v: non-empty, at most k leaves, and not containing v itself.
// The self test subsumes the old `n == 1 && leaves[0] == v` clause,
// which was unreachable behind an `n < 2` bound; dropping that bound
// also admits 1-leaf cuts over a *different* variable, which collapse
// v to a wire when a cone degenerates to a single leaf.
func usableCut(leaves []int32, v, k int) bool {
	if len(leaves) < 1 || len(leaves) > k {
		return false
	}
	for _, l := range leaves {
		if int(l) == v {
			return false
		}
	}
	return true
}

// rebuildNode re-realizes one AND node into rb.ng, keeping the
// cheapest of the direct structural copy and up to tryCuts cut-based
// resyntheses.
func (rb *rebuilder) rebuildNode(v int, f0, f1 aig.Lit, probe *perf.Probe) {
	probe.LoadHot(rgNode, uint64(v))
	probe.LoadHot(rgStrash, strashIdx(uint64(f0)<<32|uint64(f1)))
	probe.LoopBranches(8)

	// Baseline: direct structural copy.
	old2new := &rb.sc.o2n
	a := old2new.get(f0.Var()).NotIf(f0.IsNeg())
	b := old2new.get(f1.Var()).NotIf(f1.IsNeg())
	before := rb.ng.NumVars()
	best := rb.ng.And(a, b)
	bestCost := rb.ng.NumVars() - before
	rb.coldNodes(bestCost, probe)
	if bestCost == 0 {
		// Strash hit: nothing can beat a free node.
		probe.Branch(rb.brSite, false)
		old2new.set(v, best)
		return
	}

	tried := 0
	for _, cut := range rb.cuts.Cuts(v) {
		if tried >= rb.tryCuts {
			break
		}
		if !usableCut(cut.Leaves, v, rb.k) {
			continue
		}
		tried++
		n := len(cut.Leaves)
		tt := cutTT(rb.g, v, cut.Leaves, probe, &rb.sc.tts)
		// ISOP extraction recurses over cofactors; its cost is the
		// bulk of a resynthesis attempt.
		probe.Ops(280)
		rb.sc.cubes = isop(rb.sc.cubes[:0], tt, 0, n)
		// Realize over the new-graph leaf literals (a truth table has
		// at most six variables).
		var leafLits [6]aig.Lit
		ok := true
		for i, l := range cut.Leaves {
			if old2new.get(int(l)) == 0 && l != 0 {
				// A leaf that was itself swept away (shouldn't
				// happen in topo order, but stay safe).
				ok = false
				break
			}
			leafLits[i] = old2new.get(int(l))
		}
		if !ok {
			continue
		}
		mark := rb.ng.NumVars()
		lit := buildCover(rb.ng, rb.sc.cubes, leafLits[:n], tt, n, probe, rb.sc)
		cost := rb.ng.NumVars() - mark
		better := cost < bestCost
		probe.Branch(rb.brSite, better)
		if better {
			best = lit
			bestCost = cost
		}
	}
	old2new.set(v, best)
}

// buildCover realizes a cube cover over the given leaf literals,
// returning the output literal. Constants and single-cube covers take
// fast paths; multi-cube covers build balanced AND/OR trees. sc lends
// the term and literal lists their storage.
func buildCover(ng *aig.Graph, cubes []cube, leaves []aig.Lit, tt uint64, n int, probe *perf.Probe, sc *shardScratch) aig.Lit {
	if tt == 0 {
		return aig.False
	}
	if tt == ttMask(n) {
		return aig.True
	}
	terms, lits := sc.terms[:0], sc.lits
	for _, c := range cubes {
		lits = lits[:0]
		for i := 0; i < n; i++ {
			if c.pos>>uint(i)&1 == 1 {
				lits = append(lits, leaves[i])
			}
			if c.neg>>uint(i)&1 == 1 {
				lits = append(lits, leaves[i].Not())
			}
		}
		probe.Ops(len(lits))
		terms = append(terms, ng.AndN(lits))
	}
	sc.terms, sc.lits = terms, lits
	return ng.OrN(terms)
}
