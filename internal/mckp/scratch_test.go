package mckp

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestScratchReuseMatchesFresh: one Scratch kept across 60 seeded
// re-solves, whose job, class and item counts grow and shrink from one
// batch to the next, gives exactly the selection a call with no
// Scratch gives, at 1, 2 and 8 workers.
func TestScratchReuseMatchesFresh(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		var kept Scratch
		sizes := map[int]bool{}
		for seed := int64(0); seed < 60; seed++ {
			rng := rand.New(rand.NewSource(seed))
			jobs, capacity, freeAt := randomStateBatch(rng)
			if seed%3 == 0 {
				// Every third batch is three times as wide, so the kept
				// slots see a larger batch after smaller ones and the
				// reverse.
				jobs = append(append(append([]BatchJob(nil), jobs...), jobs...), jobs...)
			}
			sizes[len(jobs)] = true
			st := BatchState{FreeAtSec: freeAt, Rounds: rng.Intn(3), Workers: workers}
			if rng.Intn(2) == 0 {
				st.Prices = map[string]float64{}
				for l := range capacity {
					st.Prices[l] = rng.Float64() * 0.05
				}
			}
			want, err := BatchOptimizeState(jobs, capacity, st)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			st.Scratch = &kept
			got, err := BatchOptimizeState(jobs, capacity, st)
			if err != nil {
				t.Fatalf("seed %d, kept scratch: %v", seed, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d seed %d: kept scratch gives\n%+v\nfresh storage gives\n%+v", workers, seed, got, want)
			}
		}
		if len(sizes) < 6 {
			t.Fatalf("only %d batch sizes; the kept slots never grew and shrank", len(sizes))
		}
	}
}

// TestWarmResolveKeepsDPStorage is the guard that a kept Scratch
// carries the DP tables from one re-solve to the next: a warm
// re-solve of a fixed 24-job, 4-stage batch allocates its results,
// the estimator and the fan-out, and none of the DP tables. The
// budget is the 143 allocations measured, plus 25 %; the same call
// with no Scratch makes 245 (each job's tables once per call), and
// each solve building its own tables made 719.
func TestWarmResolveKeepsDPStorage(t *testing.T) {
	const budget = 178
	labels := []string{"gp.2x", "mem.4x", "cpu.8x"}
	capacity := Capacity{"gp.2x": 2, "mem.4x": 3, "cpu.8x": 1}
	jobs := make([]BatchJob, 24)
	for i := range jobs {
		jobs[i] = BatchJob{Name: string(rune('a' + i)), ReadySec: 20 * i, DeadlineSec: 20*i + 2000}
		for l := 0; l < 4; l++ {
			cl := Class{Name: string(rune('A' + l))}
			for j := 0; j < 3; j++ {
				cl.Items = append(cl.Items, Item{Label: labels[(i+l+j)%3], TimeSec: 30 + 10*j + i%5, Cost: float64(6-2*j) / 10})
			}
			jobs[i].Classes = append(jobs[i].Classes, cl)
		}
	}
	cold, err := BatchOptimize(jobs, capacity)
	if err != nil || !cold.Feasible {
		t.Fatalf("cold solve: feasible=%v err=%v", cold.Feasible, err)
	}
	st := BatchState{Prices: cold.FinalPrices, Rounds: 2, Workers: 1, Scratch: &Scratch{}}
	warm := func() {
		if _, err := BatchOptimizeState(jobs, capacity, st); err != nil {
			t.Fatal(err)
		}
	}
	warm() // grow the slots once
	kept := testing.AllocsPerRun(20, warm)
	st.Scratch = nil
	fresh := testing.AllocsPerRun(20, warm)
	t.Logf("warm re-solve: %.0f allocations with a kept scratch, %.0f without", kept, fresh)
	if kept > budget {
		t.Errorf("warm re-solve with a kept scratch allocates %.0f times, budget %d", kept, budget)
	}
	if fresh <= budget {
		t.Errorf("without a scratch the re-solve allocates only %.0f times, within the budget: the batch no longer exercises the DP tables", fresh)
	}
}
