// Package synth is the logic-synthesis engine: AIG optimization passes
// (tree balancing, cut-based rewriting, cone refactoring) and a
// polarity-aware, cut-based technology mapper targeting a standard-cell
// library. Together with the recipes (StandardRecipes) it substitutes
// for the commercial synthesis tool in the paper's flow. On the host,
// only the partition rebuilds (see rewrite.go) and cut-enumeration
// levels wider than cutGrain nodes run in parallel; partitioning, the
// narrow levels, the shard merge, the sweep and the mapper's cover run
// serially.
package synth

import (
	"cmp"
	"slices"

	"edacloud/internal/aig"
	"edacloud/internal/par"
	"edacloud/internal/perf"
)

// balancePool rebuilds every maximal AND-tree as a depth-balanced
// tree, pairing the shallowest operands first (Huffman order), on the
// given worker pool, and reports the pass's parallel structure. It
// preserves function and typically reduces depth at equal or smaller
// size.
//
// The graph balances cone-parallel over a partitioned strash: each
// partition rebuilds its owned trees into a private shard graph,
// estimating foreign-leaf depths from the source graph's levels, and
// the shards merge in deterministic partition order (see rewrite.go).
// A graph whose outputs form one cone group is a single partition,
// whose shard is the result.
func balancePool(g *aig.Graph, probe *perf.Probe, pool *par.Pool, rs *runScratch) (*aig.Graph, passStats) {
	cp := partitionAccounted(g, probe, rs)
	// Freeze the lazily memoized fanout counts and levels before the
	// parallel region; workers read them concurrently.
	fanout := g.FanoutCounts()
	srcLv := g.Levels()

	shards, parInstrs := forPartitions(probe, pool, rs, cp, func(pi int, sc *shardScratch, sg *aig.Graph, probe *perf.Probe) shardBuild {
		return balancePartition(g, cp, pi, fanout, srcLv, sc, sg, probe)
	})
	ng := mergeShards(g, cp, shards, probe, rs)
	// A graph with no outputs has no partition but is still one unit of
	// work.
	return ng, passStats{chunks: max(1, cp.NumParts()), parallelInstrs: parInstrs}
}

// balancePartition rebalances the AND-trees owned by partition pi into
// sg, the partition's recycled shard graph. Foreign leaves (only ever
// direct fanins of owned nodes: a single-fanout child of an owned node
// is reachable solely through it and is therefore owned too) become
// placeholder inputs whose level is taken from the source graph — the
// best available estimate of their merged depth. The primary inputs of
// a graph's only partition keep level 0.
func balancePartition(g *aig.Graph, cp *aig.ConePartitioning, pi int, fanout, srcLv []int32, sc *shardScratch, sg *aig.Graph, probe *perf.Probe) shardBuild {
	part := cp.Parts[pi]
	leafVars := beginShard(g, cp, pi, nil, 0, 0, sc, sg)
	lvl := slices.Grow(sc.lvl[:0], 1+sg.NumInputs()+len(part.Nodes))[:1+sg.NumInputs()]
	clear(lvl)
	for i, lv := range leafVars {
		lvl[1+i] = srcLv[lv]
	}
	bb := &balancer{g: g, ng: sg, sc: sc, lvl: lvl, fanout: fanout}
	for _, v := range part.Nodes {
		bb.balanceNode(int(v), probe)
	}
	sc.lvl = bb.lvl
	return shardBuild{sg: sg, leafVars: leafVars, owned: ownedLits(cp, pi, sc)}
}

// balancer carries the shared state of one partition's balancing into
// its shard graph. sc holds the old-to-new literal map and the per-node
// leaf lists.
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
