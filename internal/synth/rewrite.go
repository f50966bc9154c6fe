package synth

import (
	"slices"

	"edacloud/internal/aig"
	"edacloud/internal/par"
	"edacloud/internal/perf"
)

// PartitionGrain is the per-partition AND-node target of cone-parallel
// rebuilds (rewrite, refactor, balance). It is a fixed constant — not a
// function of the worker count — so the partitioning, the results and
// the probe-shard layout are identical on every machine and for every
// pool size.
const PartitionGrain = 96

// rewritePool performs cut-based resubstitution on the given worker
// pool and reports the pass's parallel structure: every node's
// 4-feasible cuts are evaluated as truth tables, an irredundant
// sum-of-products implementation is rebuilt over the cut leaves in the
// output graph, and the cheapest realization (measured in
// actually-added nodes, strashing included) wins. Dead logic left
// behind by replaced realizations is swept at the end.
//
// The graph is rebuilt cone-parallel over a partitioned strash: see
// rebuildWithCuts.
func rewritePool(g *aig.Graph, probe *perf.Probe, pool *par.Pool, rs *runScratch) (*aig.Graph, passStats) {
	return rebuildWithCuts(g, probe, pool, rs, 4, 6, tries[PassRewrite], brRewriteGain)
}

// refactorPool is rewritePool with one large cut per node (up to 6
// leaves), the classical coarse-grained companion pass: it collapses
// bigger cones and resynthesizes them from their ISOP factorization.
func refactorPool(g *aig.Graph, probe *perf.Probe, pool *par.Pool, rs *runScratch) (*aig.Graph, passStats) {
	return rebuildWithCuts(g, probe, pool, rs, 6, 4, tries[PassRefactor], brRefactorGain)
}

// tries is the number of cuts per node each pass tries.
var tries = map[PassKind]int{PassRewrite: 2, PassRefactor: 1}

// passStats describes the parallel structure of one executed pass: the
// number of independent work units its widest parallel region offered
// (cone partitions or cut-sweep chunks, whichever is larger) and how
// many instructions it retired inside parallel regions. optimize feeds
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
// The graph is rebuilt cone-parallel: each partition resynthesizes its
// owned nodes into a private shard graph with its own structural hash
// table, referencing foreign nodes (owned by lower partitions) through
// placeholder inputs; the shards then merge into the output graph in
// ascending partition order, so the result is bit-identical for every
// worker count. A graph whose outputs form one cone group is a single
// partition, whose shard is the result (see mergeShards). Each shard
// measures realization cost against its own table, so the partitioning
// may change the result's structure, but never its function.
func rebuildWithCuts(g *aig.Graph, probe *perf.Probe, pool *par.Pool, rs *runScratch, k, maxCuts, tryCuts int, brSite uint64) (*aig.Graph, passStats) {
	cuts := newCutEnum(g, k, maxCuts, probe, pool, rs)
	cp := partitionAccounted(g, probe, rs)
	shards, rebuildInstrs := forPartitions(probe, pool, rs, cp, func(pi int, sc *shardScratch, sg *aig.Graph, probe *perf.Probe) shardBuild {
		return rebuildPartition(g, cp, pi, cuts, k, tryCuts, brSite, sc, sg, probe)
	})
	ng := mergeShards(g, cp, shards, probe, rs)

	// The phase's chunk bound covers both parallel regions: the cut
	// sweep's widest level and the partition rebuilds. A single
	// partition is no parallel region, so there the cut sweep's chunk
	// count keeps the measured fraction scalable instead of being zeroed
	// by chunks=1.
	return ng, passStats{chunks: max(cp.NumParts(), cuts.parChunks), parallelInstrs: cuts.parInstrs + rebuildInstrs}
}

// partitionAccounted partitions the cones into the run's partitioning,
// charging the serial DFS marking sweep to the probe. The result is
// valid until the next pass partitions.
func partitionAccounted(g *aig.Graph, probe *perf.Probe, rs *runScratch) *aig.ConePartitioning {
	probe.Ops(6 * g.NumVars())
	return g.PartitionConesInto(&rs.cones, PartitionGrain)
}

// shardBuild is one partition's resynthesis product: the private shard
// graph (the partition's recycled slot, valid until the next pass), the
// original variables backing its placeholder inputs (in input order),
// and the shard literal of each owned node, parallel to the partition's
// Nodes list. All three are proportional to the partition, not the
// graph — the pooled var-indexed scratch is handed back to the worker
// as soon as the partition finishes.
type shardBuild struct {
	sg       *aig.Graph
	leafVars []int32
	owned    []aig.Lit
}

// rebuildPartition resynthesizes the nodes owned by partition pi into
// sg, the partition's recycled shard graph, against its private strash
// table. Foreign references — primary inputs and AND nodes owned by
// lower partitions, whether direct fanins or cut leaves — become
// placeholder inputs, in ascending original-variable order. The
// function reads g and the cut lists only (both frozen before the
// parallel region), so partitions are safe to run concurrently.
func rebuildPartition(g *aig.Graph, cp *aig.ConePartitioning, pi int, cuts *cutEnum, k, tryCuts int, brSite uint64, sc *shardScratch, sg *aig.Graph, probe *perf.Probe) shardBuild {
	leafVars := beginShard(g, cp, pi, cuts, k, tryCuts, sc, sg)
	rb := &rebuilder{g: g, ng: sg, sc: sc, cuts: cuts, k: k, tryCuts: tryCuts, brSite: brSite}
	for _, v := range cp.Parts[pi].Nodes {
		f0, f1 := g.Fanins(int(v))
		rb.rebuildNode(int(v), f0, f1, probe)
	}
	return shardBuild{sg: sg, leafVars: leafVars, owned: ownedLits(cp, pi, sc)}
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
// reference set, not the whole graph. A leaf is marked by mapping it
// in the shard's literal map, which beginShard has just emptied and
// then maps each leaf to its placeholder input. The sorted set is
// carved from the shard's slab, where it stays until the merge.
func partitionLeaves(g *aig.Graph, cp *aig.ConePartitioning, pi int, cuts *cutEnum, k, tryCuts int, sc *shardScratch) []int32 {
	out := sc.foreign[:0]
	foreign := func(u int) {
		if u != 0 && cp.Owner[u] != int32(pi) && !sc.o2n.has(u) {
			sc.o2n.set(u, aig.True)
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
		for _, leaves := range cuts.Cuts(int(v)).all() {
			if tried >= tryCuts {
				break
			}
			if !usableCut(leaves, int(v), k) {
				continue
			}
			tried++
			for _, l := range leaves {
				foreign(int(l))
			}
		}
	}
	slices.Sort(out)
	sc.foreign = out
	return append(sc.leafVars.Take(len(out))[:0], out...)
}

// mergeShards folds the partition shards into one output graph in
// ascending partition order: each shard's placeholder inputs map to
// the final literals of already-merged partitions (or primary inputs),
// and its nodes re-strash against the accumulated table, deduplicating
// logic that distinct shards realized identically. The merge order is
// fixed, so the merged graph is independent of which worker built
// which shard. The serial merge cost is recorded on the parent probe —
// it is the non-scaling portion of a cone-parallel pass. The shards
// merge into the run's temporary graph; the pass gets its swept copy.
// A lone shard is the whole graph over the primary inputs themselves
// (see beginShard), so it is the result as it stands: nothing is
// appended and no strash traffic is replayed. Every map the merge
// builds is the run's: final, each shard's input map and Append's.
func mergeShards(g *aig.Graph, cp *aig.ConePartitioning, shards []shardBuild, probe *perf.Probe, rs *runScratch) *aig.Graph {
	// Every entry the merge reads — the constant, the primary inputs and
	// each partition's owned nodes — is written before it is read.
	final := grow(&rs.final, g.NumVars())
	final[0] = aig.False
	if len(shards) == 1 {
		for i := range g.NumInputs() {
			final[g.Input(i).Var()] = shards[0].sg.Input(i)
		}
		for i, v := range cp.Parts[0].Nodes {
			final[v] = shards[0].owned[i]
		}
		return sweepAccounted(g, shards[0].sg, final, probe, rs)
	}
	// Room for every shard node: the merge can only deduplicate.
	ands := 0
	for pi := range shards {
		ands += shards[pi].sg.NumAnds()
	}
	if rs.tmp == nil {
		rs.tmp = new(aig.Graph)
	}
	ng := rs.tmp
	ng.Reset(g.Name, g.NumInputs(), max(ands, rs.mergeAnds))
	ng.SwapStrash(&rs.tables[0])
	for i := range g.NumInputs() {
		final[g.Input(i).Var()] = ng.AddInput(g.InputName(i))
	}
	for pi := range shards {
		sb := &shards[pi]
		inMap := grow(&rs.inMap, len(sb.leafVars))
		for i, lv := range sb.leafVars {
			inMap[i] = final[lv]
		}
		before := ng.NumVars()
		m := ng.Append(sb.sg, inMap, rs.appendMap)
		rs.appendMap = m
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
	ng.SwapStrash(&rs.tables[0])
	return sweepAccounted(g, ng, final, probe, rs)
}

// sweepAccounted gives ng g's outputs, reading each through final (the
// literal in ng of every variable of g), and runs the final dead-node
// sweep, charging its serial full-graph copy to the probe: one node
// record touch and a handful of bookkeeping instructions per variable.
// The copy goes to the run's rs.dst — a run-owned pass graph when a
// later pass of the recipe reads it, a fresh graph otherwise — so
// neither the run's temporary nor a shard graph escapes the pass, and
// neither does a run-owned graph escape the run. The copy is built with
// the run's serial hash table and leaves it behind: no later pass adds
// to it, and a caller that adds to the result rebuilds its own.
func sweepAccounted(g, ng *aig.Graph, final []aig.Lit, probe *perf.Probe, rs *runScratch) *aig.Graph {
	for i := range g.NumOutputs() {
		o := g.Output(i)
		ng.AddOutput(final[o.Var()].NotIf(o.IsNeg()), g.OutputName(i))
	}
	probe.Ops(4 * ng.NumVars())
	probe.LoadCold(ng.NumVars() / 8)
	dst := rs.dst
	if dst == nil {
		dst = aig.NewSized("", 0, 0)
	}
	dst.SwapStrash(&rs.tables[0])
	swept, old2new := ng.SweepInto(dst, rs.sweepMap)
	swept.SwapStrash(&rs.tables[0])
	rs.sweepMap = old2new
	swept.Name = g.Name
	return swept
}

// rebuilder carries the shared state of one partition's rebuild into
// its shard graph. sc holds the old-to-new literal map and every
// per-node temporary.
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
	old2new := rb.sc.o2n
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
	for _, leaves := range rb.cuts.Cuts(v).all() {
		if tried >= rb.tryCuts {
			break
		}
		if !usableCut(leaves, v, rb.k) {
			continue
		}
		tried++
		n := len(leaves)
		tt := cutTT(rb.g, v, leaves, probe, &rb.sc.tts)
		// ISOP extraction recurses over cofactors; its cost is the
		// bulk of a resynthesis attempt.
		probe.Ops(280)
		rb.sc.cubes = isop(rb.sc.cubes[:0], tt, 0, n)
		// Realize over the new-graph leaf literals (a truth table has
		// at most six variables).
		var leafLits [6]aig.Lit
		ok := true
		for i, l := range leaves {
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
