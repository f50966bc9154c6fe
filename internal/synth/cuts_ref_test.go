package synth

import (
	"encoding/binary"
	"reflect"
	"sort"
	"testing"

	"edacloud/internal/aig"
	"edacloud/internal/designs"
	"edacloud/internal/hash"
	"edacloud/internal/ints"
	"edacloud/internal/par"
	"edacloud/internal/perf"
)

// refCutEnum is the cut enumeration as it was before the per-shard cut
// arena: level buckets grown by append, one allocation per merged leaf
// set (failed merges included), a hash map per node to drop duplicates,
// a reflection-driven stable sort, truncation, the trivial cut. It
// shares only sameLeaves with cutEnum, and it is the algorithm every
// committed golden and digest was first produced with, so do not "fix"
// it: TestCutEnumMatchesReference requires cutEnum to reproduce its cut
// lists and its probe counters exactly.
func refCutEnum(g *aig.Graph, k, maxCuts int, probe *perf.Probe, pool *par.Pool) *cutEnum {
	ce := &cutEnum{g: g, k: k, maxCuts: maxCuts, probe: probe, pool: pool, cuts: make([][]Cut, g.NumVars())}
	ce.cuts[0] = []Cut{{Leaves: []int32{0}}}
	for _, v := range g.InputVars() {
		ce.cuts[v] = []Cut{{Leaves: []int32{int32(v)}}}
	}
	levels := g.Levels()
	var maxLv int32
	for _, l := range levels {
		if l > maxLv {
			maxLv = l
		}
	}
	buckets := make([][]int32, maxLv+1)
	g.TopoAnds(func(v int, f0, f1 aig.Lit) {
		buckets[levels[v]] = append(buckets[levels[v]], int32(v))
	})
	for _, nodes := range buckets {
		if len(nodes) == 0 {
			continue
		}
		before := ce.probe.Counters().Instrs
		ce.pool.ForProbe(ce.probe, len(nodes), cutGrain, func(lo, hi, _ int, probe *perf.Probe) {
			for _, v := range nodes[lo:hi] {
				refEnumNode(ce, int(v), probe)
			}
		})
		if chunks := ints.CeilDiv(len(nodes), cutGrain); chunks > 1 {
			ce.parInstrs += ce.probe.Counters().Instrs - before
			ce.parChunks = ints.Max(ce.parChunks, chunks)
		}
	}
	return ce
}

func refEnumNode(ce *cutEnum, v int, probe *perf.Probe) {
	f0, f1 := ce.g.Fanins(v)
	probe.LoadHot(rgCut, uint64(v))
	c0 := ce.cuts[f0.Var()]
	c1 := ce.cuts[f1.Var()]
	var merged []Cut
	for _, a := range c0 {
		for _, b := range c1 {
			leaves, ok := refMergeLeaves(a.Leaves, b.Leaves, ce.k)
			probe.Branch(brCutMerge, ok)
			probe.Ops(240)
			probe.LoopBranches(6)
			probe.LoadHot(rgCut, uint64(f0.Var()))
			if !ok {
				continue
			}
			merged = append(merged, Cut{Leaves: leaves})
		}
	}
	merged = refDedupCuts(merged)
	sort.SliceStable(merged, func(i, j int) bool {
		return len(merged[i].Leaves) < len(merged[j].Leaves)
	})
	if len(merged) > ce.maxCuts {
		merged = merged[:ce.maxCuts]
	}
	merged = append(merged, Cut{Leaves: []int32{int32(v)}})
	ce.cuts[v] = merged
	probe.Ops(len(c0)*len(c1) + 4)
}

func refMergeLeaves(a, b []int32, k int) ([]int32, bool) {
	out := make([]int32, 0, k)
	i, j := 0, 0
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
		if len(out) == k {
			return nil, false
		}
		out = append(out, next)
	}
	return out, true
}

// refLeafHash is the byte-wise FNV-1a of the leaves, four little-endian
// bytes each, that the old dedup keyed its map with.
func refLeafHash(leaves []int32) uint64 {
	h := hash.New()
	var b [4]byte
	for _, l := range leaves {
		binary.LittleEndian.PutUint32(b[:], uint32(l))
		h.Bytes(string(b[:]))
	}
	return uint64(h)
}

func refDedupCuts(cuts []Cut) []Cut {
	seen := make(map[uint64]int32, len(cuts))
	out := cuts[:0]
	for _, c := range cuts {
		key := refLeafHash(c.Leaves)
		if idx, ok := seen[key]; ok && sameLeaves(out[idx].Leaves, c.Leaves) {
			continue
		} else if !ok {
			seen[key] = int32(len(out))
		}
		out = append(out, c)
	}
	return out
}

// TestCutEnumMatchesReference: for the three (k, maxCuts) settings the
// engine uses — rewrite, refactor, the mapper — the arena enumeration
// must keep exactly the reference's cuts in the reference's order and
// record exactly its probe events, at every worker count.
func TestCutEnumMatchesReference(t *testing.T) {
	inputs := []struct {
		name string
		g    *aig.Graph
	}{
		{"cavlc", designs.MustBenchmark("cavlc", 1)},
		{"int2float", designs.MustBenchmark("int2float", 1)},
		{"ibex@0.03", designs.MustEvalDesign("ibex", 0.03)},
		{"adder.x2", designs.MustBenchmark("adder", 2)},
	}
	for _, cfg := range []struct{ k, maxCuts int }{{4, 6}, {6, 4}, {3, 8}} {
		for _, in := range inputs {
			for _, workers := range []int{1, 2, 8} {
				refProbe := perf.NewProbe(perf.DefaultProbeConfig())
				want := refCutEnum(in.g, cfg.k, cfg.maxCuts, refProbe, par.Fixed(workers))
				probe := perf.NewProbe(perf.DefaultProbeConfig())
				got := newCutEnum(in.g, cfg.k, cfg.maxCuts, probe, par.Fixed(workers))

				if !reflect.DeepEqual(got.cuts, want.cuts) {
					for v := range want.cuts {
						if !reflect.DeepEqual(got.cuts[v], want.cuts[v]) {
							t.Fatalf("%s k=%d maxCuts=%d workers=%d: node %d has cuts %v, reference %v",
								in.name, cfg.k, cfg.maxCuts, workers, v, got.cuts[v], want.cuts[v])
						}
					}
				}
				if g, w := probe.Counters(), refProbe.Counters(); g != w {
					t.Fatalf("%s k=%d maxCuts=%d workers=%d: counters %+v, reference %+v",
						in.name, cfg.k, cfg.maxCuts, workers, g, w)
				}
				if got.parInstrs != want.parInstrs || got.parChunks != want.parChunks {
					t.Fatalf("%s k=%d maxCuts=%d workers=%d: parallel share %d/%d, reference %d/%d",
						in.name, cfg.k, cfg.maxCuts, workers, got.parInstrs, got.parChunks, want.parInstrs, want.parChunks)
				}
			}
		}
	}
}

// TestCutListsDoNotAlias: cut lists and leaf sets are carved from shared
// chunks, so each must be capped at its own length — an append by a
// reader must reallocate, never overwrite the neighbouring cut.
func TestCutListsDoNotAlias(t *testing.T) {
	g := designs.MustBenchmark("int2float", 1)
	ce := newCutEnum(g, 4, 6, nil, nil)
	for v, list := range ce.cuts {
		if cap(list) != len(list) {
			t.Fatalf("node %d: cut list has len %d, cap %d", v, len(list), cap(list))
		}
		for _, c := range list {
			if cap(c.Leaves) != len(c.Leaves) {
				t.Fatalf("node %d: leaf set has len %d, cap %d", v, len(c.Leaves), cap(c.Leaves))
			}
		}
	}
}
