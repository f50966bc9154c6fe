package synth

import (
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
func passAllocBytes(t *testing.T, g *aig.Graph, pass func(*aig.Graph, *perf.Probe) *aig.Graph) uint64 {
	t.Helper()
	c := g.Clone()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	out := pass(c, nil)
	runtime.ReadMemStats(&after)
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
	for _, tc := range []struct {
		name string
		pass func(*aig.Graph, *perf.Probe) *aig.Graph
	}{
		{"rewrite", Rewrite},
		{"refactor", Refactor},
		{"balance", Balance},
	} {
		t.Run(tc.name, func(t *testing.T) {
			smallBytes := passAllocBytes(t, small, tc.pass)
			largeBytes := passAllocBytes(t, large, tc.pass)
			allocRatio := float64(largeBytes) / float64(smallBytes)
			t.Logf("%s: %d -> %d bytes (%.1fx for a %.1fx size step)",
				tc.name, smallBytes, largeBytes, allocRatio, varsRatio)
			if allocRatio > 3*varsRatio {
				t.Fatalf("allocation grows super-linearly: %.1fx bytes for %.1fx vars (limit %.1fx) — per-partition scratch is dense again?",
					allocRatio, varsRatio, 3*varsRatio)
			}
		})
	}
}

// TestSynthesizeAllocBudget pins the allocation-free kernels: a whole
// instrumented run (resyn2 + map) of adder.x10 measures about 4.5 KB
// and 17 mallocs per input AND node, and must stay within a quarter
// above that. One make per cut, per merge or per rebuilt node costs
// tens of mallocs per AND, so the next one fails here instead of
// waiting for the benchmark. Both figures are deterministic up to the
// runtime's own bookkeeping (the race detector adds about 5 %).
func TestSynthesizeAllocBudget(t *testing.T) {
	const (
		maxBytesPerAnd   = 5650
		maxMallocsPerAnd = 21
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
	t.Logf("adder.x10 (%d ANDs): %.0f bytes and %.1f mallocs per input AND", g.NumAnds(), bytesPerAnd, mallocsPerAnd)
	if bytesPerAnd > maxBytesPerAnd {
		t.Errorf("%.0f bytes per input AND, budget %d", bytesPerAnd, maxBytesPerAnd)
	}
	if mallocsPerAnd > maxMallocsPerAnd {
		t.Errorf("%.1f mallocs per input AND, budget %d", mallocsPerAnd, maxMallocsPerAnd)
	}
}
