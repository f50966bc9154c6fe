package synth

import (
	"bytes"
	"runtime"
	"testing"

	"edacloud/internal/aig"
	"edacloud/internal/designs"
	"edacloud/internal/par"
	"edacloud/internal/perf"
	"edacloud/internal/techlib"
)

// passAllocBytes reports the heap bytes one run of pass allocates on a
// fresh clone of g, with the clone's own cost subtracted out.
func passAllocBytes(t *testing.T, g *aig.Graph, pass PassKind) uint64 {
	t.Helper()
	c := g.Clone()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	out, err := RunPass(c, pass, nil, 0)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumOutputs() != g.NumOutputs() {
		t.Fatal("pass dropped outputs")
	}
	return after.TotalAlloc - before.TotalAlloc
}

// TestPartitionedPassAllocScaling pins the shard-scratch fix: total
// allocation of the partitioned passes must grow roughly linearly with
// design size. The old dense per-partition scratch allocated
// O(NumVars) per partition — O(NumVars^2/grain) total — so a 10x
// larger design allocated ~100x the bytes; with pooled epoch-stamped
// scratch the same 10x step costs ~10x. The 3x-of-linear bound fails
// loudly on the quadratic behaviour (observed ~60x over linear) while
// leaving room for constant-factor noise.
func TestPartitionedPassAllocScaling(t *testing.T) {
	small := designs.MustBenchmark("adder", 10)
	large := designs.MustBenchmark("adder", 100)
	varsRatio := float64(large.NumVars()) / float64(small.NumVars())
	if varsRatio < 5 {
		t.Fatalf("size step too small to discriminate: vars ratio %.1f", varsRatio)
	}
	for _, pass := range []PassKind{PassRewrite, PassRefactor, PassBalance} {
		t.Run(pass.String(), func(t *testing.T) {
			smallBytes := passAllocBytes(t, small, pass)
			largeBytes := passAllocBytes(t, large, pass)
			allocRatio := float64(largeBytes) / float64(smallBytes)
			t.Logf("%s: %d -> %d bytes (%.1fx for a %.1fx size step)",
				pass, smallBytes, largeBytes, allocRatio, varsRatio)
			if allocRatio > 3*varsRatio {
				t.Fatalf("allocation grows super-linearly: %.1fx bytes for %.1fx vars (limit %.1fx) — per-partition scratch is dense again?",
					allocRatio, varsRatio, 3*varsRatio)
			}
		})
	}
}

// TestSynthesizeAllocBudget pins the allocation-free kernels, the
// run-owned pass memory and the mapper's sized netlist: a whole
// instrumented run (resyn2 + map) of adder.x10 measures about 0.95 KB
// and 0.08 mallocs per input AND node (at 2 workers; 0.99 KB at 8),
// and must stay within a quarter above that. One make per cut, per
// merge or per rebuilt node costs tens of mallocs per AND; cut storage
// and pass graphs made once per pass again take the run back above
// 2.7 KB, and so does a mapper that grows its netlist by append instead
// of reserving it from its plan. With merge maps, partition results,
// level buckets and hash tables made per pass or per partition, and a
// truth-table memo sized by the graph, the run measured 1.77 KB. With a
// slice header per cut, a mapper record that copies one and a string
// allocated per net and cell name, it measured 1.24 KB and 4.9
// mallocs; with shard, merge and pass graphs, tables and literal maps
// regrown as passes outgrew them and each net's sink list grown by
// append, 1.07 KB and 2.7 mallocs. So any of these fails here instead
// of waiting for the benchmark. Both figures are deterministic up to
// the runtime's own bookkeeping (the race detector adds about 8 %).
func TestSynthesizeAllocBudget(t *testing.T) {
	const (
		maxBytesPerAnd   = 1190
		maxMallocsPerAnd = 0.1
	)
	lib := techlib.Default14nm()
	g := designs.MustBenchmark("adder", 10)
	recipe, err := RecipeByName("resyn2")
	if err != nil {
		t.Fatal(err)
	}
	probe := perf.NewProbe(perf.DefaultProbeConfig())
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := Synthesize(g, lib, Options{Recipe: recipe, StageConfig: par.StageConfig{Probe: probe}})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Netlist == nil || probe.Counters().Instrs == 0 {
		t.Fatal("run produced no netlist or recorded no probe events")
	}
	ands := float64(g.NumAnds())
	bytesPerAnd := float64(after.TotalAlloc-before.TotalAlloc) / ands
	mallocsPerAnd := float64(after.Mallocs-before.Mallocs) / ands
	t.Logf("adder.x10 (%d ANDs): %.0f bytes and %.2f mallocs per input AND", g.NumAnds(), bytesPerAnd, mallocsPerAnd)
	if bytesPerAnd > maxBytesPerAnd {
		t.Errorf("%.0f bytes per input AND, budget %d", bytesPerAnd, maxBytesPerAnd)
	}
	if mallocsPerAnd > maxMallocsPerAnd {
		t.Errorf("%.2f mallocs per input AND, budget %.1f", mallocsPerAnd, maxMallocsPerAnd)
	}
}

// TestReadASCIIAllocBudget: reading a well-formed AIGER file reserves
// the graph from its header, so the node array and the hash table are
// allocated once instead of regrowing. adder.x10's file reads in about
// 63 bytes per AND (120 when the graph grew as it read); the budget is
// a quarter above that.
func TestReadASCIIAllocBudget(t *testing.T) {
	const maxBytesPerAnd = 79
	g := designs.MustBenchmark("adder", 10)
	var buf bytes.Buffer
	if err := g.WriteASCII(&buf); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	h, err := aig.ReadASCII(bytes.NewReader(buf.Bytes()))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if h.Fingerprint() != g.Fingerprint() {
		t.Fatal("the read graph differs from the written one")
	}
	bytesPerAnd := float64(after.TotalAlloc-before.TotalAlloc) / float64(h.NumAnds())
	t.Logf("adder.x10 (%d ANDs, %d-byte file): %.1f bytes per AND", h.NumAnds(), buf.Len(), bytesPerAnd)
	if bytesPerAnd > maxBytesPerAnd {
		t.Errorf("%.1f bytes per AND, budget %d", bytesPerAnd, maxBytesPerAnd)
	}
}
