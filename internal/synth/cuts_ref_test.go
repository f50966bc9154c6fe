package synth

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"edacloud/internal/aig"
	"edacloud/internal/designs"
	"edacloud/internal/hash"
	"edacloud/internal/par"
	"edacloud/internal/perf"
)

// refCutEnum is the cut enumeration as it was before the per-shard cut
// arena: level buckets grown by append, one allocation per merged leaf
// set (failed merges included), a hash map per node to drop duplicates,
// a reflection-driven stable sort, truncation, the trivial cut. It
// keeps each cut as its own leaf slice, shares only sameLeaves with
// cutEnum, and it is the algorithm every committed golden and digest
// was first produced with, so do not "fix" it:
// TestCutEnumMatchesReference requires cutEnum to reproduce its cut
// lists, packed, and its probe counters exactly.
func refCutEnum(g *aig.Graph, k, maxCuts int, probe *perf.Probe, pool *par.Pool) *refCuts {
	ce := &refCuts{g: g, k: k, maxCuts: maxCuts, probe: probe, pool: pool, cuts: make([][][]int32, g.NumVars())}
	ce.cuts[0] = [][]int32{{0}}
	for _, v := range g.InputVars() {
		ce.cuts[v] = [][]int32{{int32(v)}}
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
		ce.pool.ForProbe(ce.probe, len(nodes), cutGrain, func(lo, hi, _, _ int, probe *perf.Probe) {
			for _, v := range nodes[lo:hi] {
				refEnumNode(ce, int(v), probe)
			}
		})
		if chunks := (len(nodes) + cutGrain - 1) / cutGrain; chunks > 1 {
			ce.parInstrs += ce.probe.Counters().Instrs - before
			ce.parChunks = max(ce.parChunks, chunks)
		}
	}
	return ce
}

// refCuts is the reference enumeration's result: each variable's cuts
// as separate leaf slices.
type refCuts struct {
	g         *aig.Graph
	k         int
	maxCuts   int
	probe     *perf.Probe
	pool      *par.Pool
	cuts      [][][]int32
	parInstrs uint64
	parChunks int
}

// packed flattens the reference cut lists into cutEnum's layout: each
// cut's leaf count, then its leaves.
func (ce *refCuts) packed() []cutList {
	out := make([]cutList, len(ce.cuts))
	for v, cuts := range ce.cuts {
		for _, leaves := range cuts {
			out[v] = append(out[v], int32(len(leaves)))
			out[v] = append(out[v], leaves...)
		}
	}
	return out
}

func refEnumNode(ce *refCuts, v int, probe *perf.Probe) {
	f0, f1 := ce.g.Fanins(v)
	probe.LoadHot(rgCut, uint64(v))
	c0 := ce.cuts[f0.Var()]
	c1 := ce.cuts[f1.Var()]
	var merged [][]int32
	for _, a := range c0 {
		for _, b := range c1 {
			leaves, ok := refMergeLeaves(a, b, ce.k)
			probe.Branch(brCutMerge, ok)
			probe.Ops(240)
			probe.LoopBranches(6)
			probe.LoadHot(rgCut, uint64(f0.Var()))
			if !ok {
				continue
			}
			merged = append(merged, leaves)
		}
	}
	merged = refDedupCuts(merged)
	sort.SliceStable(merged, func(i, j int) bool {
		return len(merged[i]) < len(merged[j])
	})
	if len(merged) > ce.maxCuts {
		merged = merged[:ce.maxCuts]
	}
	merged = append(merged, []int32{int32(v)})
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

func refDedupCuts(cuts [][]int32) [][]int32 {
	seen := make(map[uint64]int32, len(cuts))
	out := cuts[:0]
	for _, c := range cuts {
		key := refLeafHash(c)
		if idx, ok := seen[key]; ok && sameLeaves(out[idx], c) {
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
				got := newCutEnum(in.g, cfg.k, cfg.maxCuts, probe, par.Fixed(workers), new(runScratch))

				if wantCuts := want.packed(); !reflect.DeepEqual(got.cuts, wantCuts) {
					for v := range wantCuts {
						if !reflect.DeepEqual(got.cuts[v], wantCuts[v]) {
							t.Fatalf("%s k=%d maxCuts=%d workers=%d: node %d has cuts %v, reference %v",
								in.name, cfg.k, cfg.maxCuts, workers, v, got.cuts[v], wantCuts[v])
						}
					}
					t.Fatalf("%s k=%d maxCuts=%d workers=%d: %d cut lists, reference %d",
						in.name, cfg.k, cfg.maxCuts, workers, len(got.cuts), len(wantCuts))
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

// TestCutEnumReusesRunStorage: a resyn2 + map run enumerates cuts at
// (4,6), (6,4) and then the mapper's (3,8) through one runScratch,
// rewinding its slabs and growing its candidate buffer. Each
// enumeration must equal a fresh-scratch one and the reference — cut
// lists, probe counters, parallel share — at every worker count, which
// pins stale slab chunks and a candidate buffer sized for the first
// enumeration. Running the sequence a second time must take no new
// chunk: the storage is rewound, not reallocated.
func TestCutEnumReusesRunStorage(t *testing.T) {
	inputs := []struct {
		name string
		g    *aig.Graph
	}{
		{"cavlc", designs.MustBenchmark("cavlc", 1)},
		{"ibex@0.03", designs.MustEvalDesign("ibex", 0.03)},
		{"adder.x2", designs.MustBenchmark("adder", 2)},
	}
	sequence := []struct{ k, maxCuts int }{{4, 6}, {6, 4}, {3, 8}}
	chunks := func(rs *runScratch) (n int) {
		for i := range rs.shards {
			n += reflect.ValueOf(&rs.shards[i].cut.lists).Elem().FieldByName("all").Len()
		}
		return n
	}
	for _, workers := range []int{1, 2, 8} {
		rs := new(runScratch)
		grown := 0
		for round := 0; round < 2; round++ {
			for _, in := range inputs {
				for _, cfg := range sequence {
					refProbe := perf.NewProbe(perf.DefaultProbeConfig())
					ref := refCutEnum(in.g, cfg.k, cfg.maxCuts, refProbe, par.Fixed(workers))
					freshProbe := perf.NewProbe(perf.DefaultProbeConfig())
					fresh := newCutEnum(in.g, cfg.k, cfg.maxCuts, freshProbe, par.Fixed(workers), new(runScratch))
					probe := perf.NewProbe(perf.DefaultProbeConfig())
					got := newCutEnum(in.g, cfg.k, cfg.maxCuts, probe, par.Fixed(workers), rs)

					where := func() string {
						return fmt.Sprintf("round %d %s k=%d maxCuts=%d workers=%d", round, in.name, cfg.k, cfg.maxCuts, workers)
					}
					if !reflect.DeepEqual(got.cuts, ref.packed()) || !reflect.DeepEqual(got.cuts, fresh.cuts) {
						t.Fatalf("%s: cut lists differ from the reference or a fresh scratch", where())
					}
					if g, w, f := probe.Counters(), refProbe.Counters(), freshProbe.Counters(); g != w || g != f {
						t.Fatalf("%s: counters %+v, reference %+v, fresh %+v", where(), g, w, f)
					}
					if got.parInstrs != ref.parInstrs || got.parChunks != ref.parChunks {
						t.Fatalf("%s: parallel share %d/%d, reference %d/%d", where(), got.parInstrs, got.parChunks, ref.parInstrs, ref.parChunks)
					}
					// Few nodes reach the worst case, so check the room itself.
					most := (cfg.maxCuts + 1) * (cfg.maxCuts + 1)
					for i := range rs.shards {
						if sh := &rs.shards[i].cut; len(sh.size) < most || len(sh.cand) < most*cfg.k {
							t.Fatalf("%s: shard %d has room for %d candidates of %d leaves, needs %d of %d",
								where(), i, len(sh.size), len(sh.cand)/max(len(sh.size), 1), most, cfg.k)
						}
					}
				}
			}
			if round == 0 {
				grown = chunks(rs)
			} else if n := chunks(rs); n != grown {
				t.Fatalf("workers=%d: the repeated sequence grew the slabs from %d to %d chunks", workers, grown, n)
			}
		}
	}
}

// TestCutListsDoNotAlias: cut lists are carved from shared chunks, so
// each must be capped at its own length — an append by a reader must
// reallocate, never overwrite the neighbouring node's list — and so
// must each cut's leaves, never overwriting the next cut. Walking a
// list must find whole cuts of 1..k strictly ascending leaves that end
// exactly at the list's end, the last one the trivial cut {v}.
func TestCutListsDoNotAlias(t *testing.T) {
	const k = 4
	g := designs.MustBenchmark("int2float", 1)
	ce := newCutEnum(g, k, 6, nil, nil, new(runScratch))
	for v, list := range ce.cuts {
		if cap(list) != len(list) {
			t.Fatalf("node %d: cut list has len %d, cap %d", v, len(list), cap(list))
		}
		last := -1
		for off := 0; off < len(list); off += 1 + int(list[off]) {
			n := int(list[off])
			if n < 1 || n > k || off+1+n > len(list) {
				t.Fatalf("node %d: cut at offset %d counts %d leaves in a list of %d", v, off, n, len(list))
			}
			for i := off + 2; i < off+1+n; i++ {
				if list[i] <= list[i-1] {
					t.Fatalf("node %d: cut at offset %d has leaves %v, not strictly ascending", v, off, list[off+1:off+1+n])
				}
			}
			last = off
		}
		if last < 0 || last != len(list)-2 || list[last] != 1 || list[last+1] != int32(v) {
			t.Fatalf("node %d: list %v does not end with the trivial cut {1, %d}", v, list, v)
		}
		for off, leaves := range list.all() {
			if cap(leaves) != len(leaves) {
				t.Fatalf("node %d: cut at offset %d has %d leaves, cap %d", v, off, len(leaves), cap(leaves))
			}
		}
	}
}
