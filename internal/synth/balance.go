// Package synth is the logic-synthesis engine: AIG optimization passes
// (tree balancing, cut-based rewriting, cone refactoring) and a
// polarity-aware, cut-based technology mapper targeting a standard-cell
// library. Together with the optimization recipes in recipes.go it
// substitutes for the commercial synthesis tool in the paper's flow.
// The passes rebuild the netlist cone-parallel over a partitioned
// structural hash table (see rewrite.go), so synthesis scales with
// cores up to its serial merge/sweep fraction — the measured version
// of the poor-but-nonzero multi-core scaling the paper reports.
package synth

import (
	"cmp"
	"slices"

	"edacloud/internal/aig"
	"edacloud/internal/par"
	"edacloud/internal/perf"
)

// Balance rebuilds every maximal AND-tree as a depth-balanced tree,
// pairing the shallowest operands first (Huffman order). It preserves
// function and typically reduces depth at equal or smaller size.
//
// Multi-cone graphs balance cone-parallel over a partitioned strash:
// each partition rebuilds its owned trees into a private shard graph,
// estimating foreign-leaf depths from the source graph's levels, and
// the shards merge in deterministic partition order (see rewrite.go).
func Balance(g *aig.Graph, probe *perf.Probe) *aig.Graph {
	ng, _ := balancePool(g, probe, par.Default(), new(runScratch))
	return ng
}

// balancePool is Balance with an explicit worker pool, also reporting
// the pass's parallel structure.
func balancePool(g *aig.Graph, probe *perf.Probe, pool *par.Pool, rs *runScratch) (*aig.Graph, passStats) {
	cp := partitionAccounted(g, probe)
	if cp.NumParts() <= 1 {
		return balanceSerial(g, probe, rs), passStats{chunks: 1}
	}
	// Freeze the lazily memoized fanout counts and levels before the
	// parallel region; workers read them concurrently.
	fanout := g.FanoutCounts()
	srcLv := g.Levels()

	shards, parInstrs := forPartitions(probe, pool, rs, cp.NumParts(), func(pi int, sc *shardScratch, sg *aig.Graph, probe *perf.Probe) shardBuild {
		return balancePartition(g, cp, pi, fanout, srcLv, sc, sg, probe)
	})

	ng := mergeShards(g, cp, shards, probe, rs)
	return ng, passStats{chunks: cp.NumParts(), parallelInstrs: parInstrs}
}

// balanceSerial is the single-cone path: one output graph, one strash
// table, exact incremental levels for every operand. It stays separate
// because the partitioned path would charge the probe a merge replay a
// single partition never does (+41-46 % instructions, same graph). It
// builds into the run's temporary graph and returns its swept copy.
func balanceSerial(g *aig.Graph, probe *perf.Probe, rs *runScratch) *aig.Graph {
	ng := rs.tmpGraph(g.Name, g.NumInputs(), g.NumAnds())
	sc := &rs.shards[0]
	o2n := &sc.o2n
	o2n.reset(g.NumVars())
	o2n.set(0, aig.False)
	// Incrementally tracked levels of the new graph's variables. Seed
	// with the inputs only and let append grow it: balancing shrinks or
	// preserves size, so reserving g.NumVars() up front over-commits.
	lvl := make([]int32, 1, g.NumInputs()+1)
	for i, v := range g.InputVars() {
		o2n.set(v, ng.AddInput(g.InputName(i)))
		lvl = append(lvl, 0)
	}
	bb := &balancer{g: g, ng: ng, sc: sc, lvl: lvl, fanout: g.FanoutCounts()}
	g.TopoAnds(func(v int, f0, f1 aig.Lit) {
		bb.balanceNode(v, probe)
	})
	for i, o := range g.Outputs() {
		ng.AddOutput(o2n.get(o.Var()).NotIf(o.IsNeg()), g.OutputName(i))
	}
	return sweepAccounted(ng, g.Name, probe)
}

// balancePartition rebalances the AND-trees owned by partition pi into
// sg, the partition's recycled shard graph. Foreign leaves (only ever
// direct fanins of owned nodes: a single-fanout child of an owned node
// is reachable solely through it and is therefore owned too) become
// placeholder inputs whose level is taken from the source graph — the
// best available estimate of their merged depth.
func balancePartition(g *aig.Graph, cp *aig.ConePartitioning, pi int, fanout, srcLv []int32, sc *shardScratch, sg *aig.Graph, probe *perf.Probe) shardBuild {
	part := cp.Parts[pi]
	leafVars := beginShard(g, cp, pi, nil, 0, 0, sc, sg)
	lvl := make([]int32, 1, len(part.Nodes)+len(leafVars)+1)
	for _, lv := range leafVars {
		lvl = append(lvl, srcLv[lv])
	}
	bb := &balancer{g: g, ng: sg, sc: sc, lvl: lvl, fanout: fanout}
	for _, v := range part.Nodes {
		bb.balanceNode(int(v), probe)
	}
	return shardBuild{sg: sg, leafVars: leafVars, owned: ownedLits(cp, pi, &sc.o2n)}
}

// balancer carries the shared state of one balance target (the whole
// graph on the serial path, one shard on the partitioned path). sc
// holds the old-to-new literal map and the per-node leaf lists.
type balancer struct {
	g, ng  *aig.Graph
	sc     *shardScratch
	lvl    []int32 // levels of ng's variables, tracked incrementally
	fanout []int32 // fanout counts of the *source* graph
}

// andL creates an AND keeping lvl in sync (strash hits reuse the
// recorded level of the existing node).
func (bb *balancer) andL(a, b aig.Lit) aig.Lit {
	l := bb.ng.And(a, b)
	if v := l.Var(); v == len(bb.lvl) {
		la, lb := bb.lvl[a.Var()], bb.lvl[b.Var()]
		if lb > la {
			la = lb
		}
		bb.lvl = append(bb.lvl, la+1)
	}
	return l
}

// gather appends to sc.leaves the leaves of the maximal AND-tree rooted
// at l: the tree descends through uncomplemented, single-fanout AND
// children (the classical balancing scope).
func (bb *balancer) gather(l aig.Lit, root bool, probe *perf.Probe) {
	v := l.Var()
	probe.LoadHot(rgNode, uint64(v))
	probe.LoopBranches(3)
	expand := bb.g.IsAnd(v) && !l.IsNeg() && (root || bb.fanout[v] == 1)
	probe.Branch(brBalanceExpand, expand)
	if !expand {
		bb.sc.leaves = append(bb.sc.leaves, bb.sc.o2n.get(v).NotIf(l.IsNeg()))
		return
	}
	f0, f1 := bb.g.Fanins(v)
	bb.gather(f0, false, probe)
	bb.gather(f1, false, probe)
}

// balanceNode rebuilds the maximal AND-tree rooted at v as a
// depth-balanced tree in bb.ng.
func (bb *balancer) balanceNode(v int, probe *perf.Probe) {
	bb.sc.leaves = bb.sc.leaves[:0]
	bb.gather(aig.MakeLit(v, false), true, probe)
	bb.sc.o2n.set(v, bb.balancedAnd(bb.sc.leaves, probe))
	probe.Ops(2)
}

// balancedAnd conjoins leaves pairing minimum-level operands first,
// using the list itself as its work queue; andL keeps the level
// bookkeeping valid for freshly created nodes.
func (bb *balancer) balancedAnd(work []aig.Lit, probe *perf.Probe) aig.Lit {
	switch len(work) {
	case 0:
		return aig.True
	case 1:
		return work[0]
	}
	levelOf := func(l aig.Lit) int32 { return bb.lvl[l.Var()] }
	slices.SortFunc(work, func(a, b aig.Lit) int { return cmp.Compare(levelOf(a), levelOf(b)) })
	for len(work) > 1 {
		probe.Ops(4)
		n := bb.andL(work[0], work[1])
		work = work[1:]
		work[0] = n
		// Restore order by sinking the new node to its level position.
		for i := 0; i+1 < len(work); i++ {
			worse := levelOf(work[i]) > levelOf(work[i+1])
			probe.Branch(brBalanceSink, worse)
			if !worse {
				break
			}
			work[i], work[i+1] = work[i+1], work[i]
		}
	}
	return work[0]
}

// Hot-window probe regions. Synthesis works on a bounded active set —
// the cone under transformation plus the hot end of the hash table —
// which is what keeps its cache-miss rate low in the paper's Fig. 2b.
const (
	rgNode   = 0 // node records of the active window
	rgStrash = 1 // structural-hash buckets
	rgCut    = 2 // priority-cut storage
)

// Branch-site identifiers.
const (
	brBalanceExpand = uint64(0x01)
	brBalanceSink   = uint64(0x02)
	brRewriteGain   = uint64(0x03)
	brRefactorGain  = uint64(0x04)
	brMapChoice     = uint64(0x05)
	brCutMerge      = uint64(0x06)
)

// strashIdx spreads a fanin-pair key over hash buckets.
func strashIdx(key uint64) uint64 { return key * 0x9E3779B97F4A7C15 >> 20 }
