package mckp

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// TestScratchReuseMatchesFresh: one Scratch kept across 60 seeded
// re-solves, whose job, class and item counts grow and shrink from one
// batch to the next, gives exactly the selection a call with no
// Scratch gives. So does one kept over seeded call sequences the way
// an engine makes them: budgets shrink as every
// job's ReadySec advances, some jobs repeat another's classes at a
// different budget in the same call, each call's warm prices are the
// last call's FinalPrices, and one call's price change forces tables
// to be rebuilt.
func TestScratchReuseMatchesFresh(t *testing.T) {
	var kept Scratch
	sizes := map[int]bool{}
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		jobs, capacity, freeAt := randomStateBatch(rng)
		if seed%10 == 9 {
			// Twelve distinct 8-item tables in one round.
			jobs = wideBatch(rng, capacity)
		}
		if seed%3 == 0 {
			// Every third batch is three times as wide, so the kept
			// tables see a larger batch after smaller ones and the
			// reverse.
			jobs = append(append(append([]BatchJob(nil), jobs...), jobs...), jobs...)
		}
		sizes[len(jobs)] = true
		st := BatchState{FreeAtSec: freeAt, Rounds: rng.Intn(3)}
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
			t.Fatalf("seed %d: kept scratch gives\n%+v\nfresh storage gives\n%+v", seed, got, want)
		}
	}
	if len(sizes) < 6 {
		t.Fatalf("only %d batch sizes; the kept tables never grew and shrank", len(sizes))
	}
	rebuilt := 0
	for seed := int64(100); seed < 140; seed++ {
		rng := rand.New(rand.NewSource(seed))
		jobs, capacity, freeAt := randomStateBatch(rng)
		for _, job := range jobs[:len(jobs)/2+1] {
			job.Name += "'"
			if job.DeadlineSec > 0 {
				job.DeadlineSec += 1 + rng.Intn(30)
			}
			jobs = append(jobs, job)
		}
		var (
			kept   Scratch
			prices map[string]float64
		)
		for call := 0; call < 6; call++ {
			if call == 3 && prices != nil {
				changed := map[string]float64{}
				for l := range capacity {
					changed[l] = 0.01 + prices[l]/2
				}
				prices = changed
			}
			st := BatchState{FreeAtSec: freeAt, Prices: prices, Rounds: 1 + rng.Intn(2)}
			want, err := BatchOptimizeState(jobs, capacity, st)
			if err != nil {
				t.Fatalf("seed %d call %d: %v", seed, call, err)
			}
			st.Scratch = &kept
			before := kept.builds
			got, err := BatchOptimizeState(jobs, capacity, st)
			if err != nil {
				t.Fatalf("seed %d call %d, kept scratch: %v", seed, call, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d call %d: kept scratch gives\n%+v\nfresh storage gives\n%+v", seed, call, got, want)
			}
			if call == 3 && got.Feasible && prices != nil {
				if kept.builds == before {
					t.Fatalf("seed %d call %d: changed warm prices rebuilt no table", seed, call)
				}
				rebuilt++
			}
			prices = got.FinalPrices
			for i := range jobs {
				jobs[i].ReadySec += rng.Intn(8)
			}
		}
	}
	if rebuilt < 10 {
		t.Fatalf("only %d sequences changed their warm prices on a feasible call", rebuilt)
	}
}

// wideBatch is twelve deadline-free jobs of four classes, each with
// eight items of distinct times on the capacity's labels: the widest
// tables a round builds.
func wideBatch(rng *rand.Rand, capacity Capacity) []BatchJob {
	var labels []string
	for l := range capacity {
		labels = append(labels, l)
	}
	slices.Sort(labels)
	jobs := make([]BatchJob, 12)
	for i := range jobs {
		jobs[i] = BatchJob{Name: "w" + string(rune('a'+i)), ReadySec: rng.Intn(50)}
		for l := 0; l < 4; l++ {
			cl := Class{Name: string(rune('A' + l))}
			for j := 0; j < 8; j++ {
				cl.Items = append(cl.Items, Item{
					Label: labels[rng.Intn(len(labels))], TimeSec: 50 + 40*j + rng.Intn(40), Cost: float64(rng.Intn(400)+1) / 100,
				})
			}
			jobs[i].Classes = append(jobs[i].Classes, cl)
		}
	}
	return jobs
}

// TestSmallerBudgetsBuildNoTables: a call that repeats the previous one
// with every job ready later, so every budget is smaller, reads every
// table off the kept Scratch and builds none — the fleet never queues,
// so each price round repeats the previous call's prices — and still
// gives exactly what a call with no Scratch gives.
func TestSmallerBudgetsBuildNoTables(t *testing.T) {
	capacity := Capacity{"gp.2x": 8, "mem.4x": 8}
	jobs := make([]BatchJob, 6)
	for i := range jobs {
		jobs[i] = BatchJob{Name: string(rune('a' + i)), DeadlineSec: 400 + 10*i}
		for l := 0; l < 3; l++ {
			cl := Class{Name: string(rune('A' + l))}
			for j := 0; j < 3; j++ {
				label := []string{"gp.2x", "mem.4x"}[(i+j)%2]
				cl.Items = append(cl.Items, Item{Label: label, TimeSec: 20 + 25*j + i%3, Cost: float64(9-3*j) / 10})
			}
			jobs[i].Classes = append(jobs[i].Classes, cl)
		}
	}
	st := BatchState{Prices: map[string]float64{"gp.2x": 0.002, "mem.4x": 0.001}, Rounds: 3, Scratch: &Scratch{}}
	if _, err := BatchOptimizeState(jobs, capacity, st); err != nil {
		t.Fatal(err)
	}
	built := st.Scratch.builds
	if built == 0 {
		t.Fatal("the first call built no table")
	}
	for i := range jobs {
		jobs[i].ReadySec += 7 + i
	}
	got, err := BatchOptimizeState(jobs, capacity, st)
	if err != nil {
		t.Fatal(err)
	}
	if n := st.Scratch.builds - built; n != 0 {
		t.Errorf("the repeat call at smaller budgets built %d tables, want 0", n)
	}
	st.Scratch = nil
	want, err := BatchOptimizeState(jobs, capacity, st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tables read off the kept scratch give\n%+v\nfresh storage gives\n%+v", got, want)
	}
	if got.Rounds != 3 {
		t.Fatalf("the repeat call ran %d price rounds, want 3: the priced tables were never read", got.Rounds)
	}
}

// TestWarmResolveKeepsDPStorage is the guard that a kept Scratch
// carries the DP tables and the estimator from one re-solve to the
// next: a warm re-solve of a fixed 24-job, 4-stage batch allocates its
// results, and none of the DP tables, which it reads off the ones the
// previous call built. The budget is the 26 allocations measured, plus
// 25 %; an estimator built per call made 136, and the same call with no
// Scratch makes 605 (every table built afresh).
func TestWarmResolveKeepsDPStorage(t *testing.T) {
	const budget = 32
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
	st := BatchState{Prices: cold.FinalPrices, Rounds: 2, Scratch: &Scratch{}}
	warm := func() {
		if _, err := BatchOptimizeState(jobs, capacity, st); err != nil {
			t.Fatal(err)
		}
	}
	warm() // build the tables once
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
