package flow

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"edacloud/internal/cache"
	"edacloud/internal/cloud"
	"edacloud/internal/designs"
	"edacloud/internal/synth"
)

var updateCacheGoldens = flag.Bool("update", false, "rewrite the cache hash golden file")

// artifactHashes reduces a run's artifacts to their canonical content
// hashes — the identity the bit-identical acceptance checks compare.
func artifactHashes(rc *RunContext) [5]uint64 {
	return [5]uint64{
		rc.OptimizedHash(), rc.NetlistHash(), rc.PlacementHash(),
		rc.RoutingHash(), rc.TimingHash(),
	}
}

// cacheTestJobs builds a seeded random job mix over the bundled
// designs, with deliberate duplicates so batches share chain prefixes.
func cacheTestJobs(t *testing.T, seed int64, n int) []Job {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	catalog := cloud.DefaultCatalog()
	names := []string{"dyn_node", "aes", "ibex"}
	var jobs []Job
	for i := 0; i < n; i++ {
		design := names[rng.Intn(len(names))]
		vcpus := []int{1, 2, 4, 8}[rng.Intn(4)]
		inst, err := catalog.Size(cloud.GeneralPurpose, vcpus)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, Job{
			Name:      fmt.Sprintf("j%d-%s", i, design),
			Design:    designs.MustEvalDesign(design, testScale),
			Lib:       lib,
			Instance:  inst,
			WorkScale: 2e4,
		})
	}
	return jobs
}

func runCachedBatch(t *testing.T, jobs []Job, workers int, store *cache.Store) *Schedule {
	t.Helper()
	sched, err := (&Scheduler{Workers: workers, Cache: store}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range sched.Jobs {
		if j.Err != nil {
			t.Fatalf("job %s failed: %v", j.Name, j.Err)
		}
	}
	return sched
}

func sameSchedule(t *testing.T, label string, got, want *Schedule) {
	t.Helper()
	if got.TotalCostUSD != want.TotalCostUSD || got.MakespanSec != want.MakespanSec ||
		got.TotalCPUSeconds != want.TotalCPUSeconds || got.CacheHits != want.CacheHits {
		t.Fatalf("%s: aggregates differ: cost %v vs %v, makespan %v vs %v, cpu %v vs %v, hits %d vs %d",
			label, got.TotalCostUSD, want.TotalCostUSD, got.MakespanSec, want.MakespanSec,
			got.TotalCPUSeconds, want.TotalCPUSeconds, got.CacheHits, want.CacheHits)
	}
	for i := range want.Jobs {
		g, w := got.Jobs[i], want.Jobs[i]
		if g.Name != w.Name || g.Seconds != w.Seconds || g.CostUSD != w.CostUSD {
			t.Fatalf("%s: job %d differs: %+v vs %+v", label, i, g, w)
		}
		if len(g.Stages) != len(w.Stages) {
			t.Fatalf("%s: job %d stage counts differ", label, i)
		}
		for s := range w.Stages {
			if g.Stages[s] != w.Stages[s] {
				t.Fatalf("%s: job %d stage %d differs: %+v vs %+v", label, i, s, g.Stages[s], w.Stages[s])
			}
		}
		if artifactHashes(g.Run) != artifactHashes(w.Run) {
			t.Fatalf("%s: job %d artifacts differ", label, i)
		}
	}
}

// TestCachedExecutionBitIdentical is the tentpole acceptance check:
// with a content-addressed store attached, a warm batch must produce
// bit-identical schedules, artifacts and bills at workers 1, 2 and 8,
// and those artifacts must be bit-identical to a cache-less cold run.
func TestCachedExecutionBitIdentical(t *testing.T) {
	jobs := cacheTestJobs(t, 1, 6)
	bare := runCachedBatch(t, jobs, 1, nil)

	type pair struct{ cold, warm *Schedule }
	runs := map[int]pair{}
	for _, w := range []int{1, 2, 8} {
		store := cache.New(0)
		cold := runCachedBatch(t, jobs, w, store)
		warm := runCachedBatch(t, jobs, w, store)
		runs[w] = pair{cold, warm}
	}
	for _, w := range []int{2, 8} {
		sameSchedule(t, fmt.Sprintf("cold workers=%d", w), runs[w].cold, runs[1].cold)
		sameSchedule(t, fmt.Sprintf("warm workers=%d", w), runs[w].warm, runs[1].warm)
	}
	// Cached artifacts must equal recomputed ones, job by job.
	for i := range bare.Jobs {
		if artifactHashes(bare.Jobs[i].Run) != artifactHashes(runs[1].warm.Jobs[i].Run) {
			t.Fatalf("job %d: cached artifacts differ from cache-less recomputation", i)
		}
	}
	if runs[1].warm.CacheHits == 0 {
		t.Fatal("warm batch recorded no cache hits")
	}
	if runs[1].warm.TotalCostUSD > runs[1].cold.TotalCostUSD {
		t.Fatalf("warm batch billed more than cold: $%v > $%v",
			runs[1].warm.TotalCostUSD, runs[1].cold.TotalCostUSD)
	}
	// The cold batch already dedups within itself (the mix repeats
	// designs), so even it must record hits.
	if runs[1].cold.CacheHits == 0 {
		t.Fatal("cold batch with duplicate designs recorded no within-batch hits")
	}
}

// TestCachedBatchProperty drives seeded random job mixes through
// cold/warm pairs at several worker counts: cached replays never bill
// more than cold runs, schedules stay worker-count-invariant, and the
// second pass over a shared store hits on every cacheable stage.
func TestCachedBatchProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep")
	}
	for seed := int64(10); seed < 14; seed++ {
		store := cache.New(0)
		jobs := cacheTestJobs(t, seed, 5)
		cold := runCachedBatch(t, jobs, 1, store)
		warm := runCachedBatch(t, jobs, 1, store)
		if warm.TotalCostUSD > cold.TotalCostUSD {
			t.Fatalf("seed %d: warm bill $%v exceeds cold $%v", seed, warm.TotalCostUSD, cold.TotalCostUSD)
		}
		for _, w := range []int{2, 8} {
			s2 := cache.New(0)
			c := runCachedBatch(t, jobs, w, s2)
			wm := runCachedBatch(t, jobs, w, s2)
			sameSchedule(t, fmt.Sprintf("seed %d cold workers=%d", seed, w), c, cold)
			sameSchedule(t, fmt.Sprintf("seed %d warm workers=%d", seed, w), wm, warm)
		}
		// Warm pass: every stage of every job must be served from cache.
		want := 0
		for _, j := range warm.Jobs {
			want += len(j.Stages)
		}
		if warm.CacheHits != want {
			t.Fatalf("seed %d: warm pass hit %d of %d stages", seed, warm.CacheHits, want)
		}
	}
}

// TestEvictionOnlyChangesHitRate: a byte budget small enough to evict
// between batches must never change schedules-modulo-cache-effects or
// artifacts — only the hit rate. With everything evicted, the warm run
// equals the cold run exactly.
func TestEvictionOnlyChangesHitRate(t *testing.T) {
	jobs := cacheTestJobs(t, 3, 4)
	unlimited := cache.New(0)
	cold := runCachedBatch(t, jobs, 2, unlimited)
	warmFull := runCachedBatch(t, jobs, 2, unlimited)

	tiny := cache.New(1) // evicts everything at each batch end
	coldTiny := runCachedBatch(t, jobs, 2, tiny)
	if tiny.Len() != 0 {
		t.Fatalf("1-byte budget kept %d entries", tiny.Len())
	}
	warmTiny := runCachedBatch(t, jobs, 2, tiny)

	// Within-batch dedup still works under the frozen-store discipline
	// (eviction only runs at batch end), so the tiny-store runs equal
	// the cold unlimited run exactly — same hits, same bills.
	sameSchedule(t, "tiny cold", coldTiny, cold)
	sameSchedule(t, "tiny warm", warmTiny, cold)
	if warmFull.CacheHits <= cold.CacheHits {
		t.Fatalf("unlimited warm hits %d not above cold %d", warmFull.CacheHits, cold.CacheHits)
	}
	for i := range cold.Jobs {
		if artifactHashes(warmTiny.Jobs[i].Run) != artifactHashes(warmFull.Jobs[i].Run) {
			t.Fatalf("job %d: eviction changed artifacts", i)
		}
	}
}

// TestSchedulerCacheAdoption: a second one-job batch of the same full
// flow over the store adopts every stage the first one stored — the
// very artifacts the first run computed, not a recomputation — and
// bills each adoption as a hit.
func TestSchedulerCacheAdoption(t *testing.T) {
	recipe, err := synth.RecipeByName("resyn2")
	if err != nil {
		t.Fatal(err)
	}
	store := cache.New(0)
	jobs := []Job{{
		Name:    "aes",
		Design:  designs.MustEvalDesign("aes", testScale),
		Lib:     lib,
		Options: []Option{WithRecipe(recipe)},
	}}
	first := runCachedBatch(t, jobs, 1, store)
	if st := store.Stats(); st.Hits != 0 || st.Misses == 0 || st.Puts == 0 {
		t.Fatalf("cold run stats: %+v", st)
	}
	second := runCachedBatch(t, jobs, 1, store)
	if artifactHashes(first.Jobs[0].Run) != artifactHashes(second.Jobs[0].Run) {
		t.Fatal("adopted artifacts differ from computed ones")
	}
	if first.Jobs[0].Run.Artifacts != second.Jobs[0].Run.Artifacts {
		t.Fatal("warm run recomputed stages instead of adopting the stored artifacts")
	}
	st := store.Stats()
	if int(st.Hits) != store.Len() || second.CacheHits != store.Len() {
		t.Fatalf("warm run should hit every stored stage: %+v, %d billed hits, %d entries",
			st, second.CacheHits, store.Len())
	}
}

// TestCanonicalHashStability pins the canonical artifact hashes and
// chain keys against a golden file: a change to any fingerprint or to
// the chain derivation invalidates every cache on disk or in fleet
// memory, so it must be a deliberate, reviewed event (regenerate with
// -update and bump the stage EngineVersions).
func TestCanonicalHashStability(t *testing.T) {
	recipe, err := synth.RecipeByName("resyn2")
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, name := range []string{"dyn_node", "aes", "ibex"} {
		g := designs.MustEvalDesign(name, testScale)
		p := NewPipeline(WithRecipe(recipe))
		rc, err := p.Run(g, lib)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, fmt.Sprintf("%s design %#016x", name, rc.DesignHash()))
		lines = append(lines, fmt.Sprintf("%s lib %#016x", name, rc.LibHash()))
		lines = append(lines, fmt.Sprintf("%s netlist %#016x", name, rc.NetlistHash()))
		lines = append(lines, fmt.Sprintf("%s timing %#016x", name, rc.TimingHash()))
		for _, sk := range p.CacheKeys(g, lib) {
			lines = append(lines, fmt.Sprintf("%s chain.%s %#016x", name, sk.Kind, uint64(sk.Key)))
		}
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"

	golden := filepath.Join("testdata", "cache_hashes.golden")
	if *updateCacheGoldens {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(golden)
	if err != nil {
		t.Fatalf("golden file missing (run with -update): %v", err)
	}
	defer f.Close()
	var want strings.Builder
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want.WriteString(sc.Text())
		want.WriteString("\n")
	}
	if got != want.String() {
		t.Fatalf("canonical hashes drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want.String())
	}
}
