package mckp

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"edacloud/internal/hash"
)

// randomStateBatch builds a seeded batch in the shape a rolling-horizon
// re-solve sees: 1-4 capacity labels of 1-3 machines (the last label
// sometimes named by no item), jobs with ready times drawn from a few
// values so ties are common, deadlines from none to tight, and
// FreeAtSec pools with missing labels, entries past capacity and zero
// or negative times.
func randomStateBatch(rng *rand.Rand) ([]BatchJob, Capacity, map[string][]int) {
	all := []string{"gp.2x", "mem.4x", "cpu.8x", "gp.16x"}
	labels := all[:rng.Intn(4)+1]
	capacity := Capacity{}
	for _, l := range labels {
		capacity[l] = rng.Intn(3) + 1
	}
	named := labels
	if len(labels) > 1 && rng.Intn(2) == 0 {
		named = labels[:len(labels)-1]
	}
	jobs := make([]BatchJob, rng.Intn(7)+2)
	for i := range jobs {
		job := BatchJob{Name: string(rune('a' + i)), ReadySec: 10 * rng.Intn(4)}
		fastest := 0
		for l, n := 0, rng.Intn(4)+1; l < n; l++ {
			cl := Class{Name: string(rune('A' + l))}
			quickest := 0
			for j, m := 0, rng.Intn(4)+1; j < m; j++ {
				it := Item{
					Label:   named[rng.Intn(len(named))],
					TimeSec: rng.Intn(40) + 1,
					Cost:    float64(rng.Intn(200)+1) / 10,
				}
				if j == 0 || it.TimeSec < quickest {
					quickest = it.TimeSec
				}
				cl.Items = append(cl.Items, it)
			}
			fastest += quickest
			job.Classes = append(job.Classes, cl)
		}
		if rng.Intn(4) != 0 {
			job.DeadlineSec = job.ReadySec + fastest + rng.Intn(2*fastest+1)
		}
		jobs[i] = job
	}
	var freeAt map[string][]int
	if rng.Intn(4) != 0 {
		freeAt = map[string][]int{}
		for _, l := range all {
			if rng.Intn(3) == 0 {
				continue // missing: every machine free now
			}
			pool := make([]int, rng.Intn(5))
			for k := range pool {
				pool[k] = rng.Intn(60) - 15
			}
			freeAt[l] = pool
		}
	}
	return jobs, capacity, freeAt
}

// sortedKeys returns m's labels in ascending order.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestBatchOptimizeStatePinned pins BatchOptimizeState's output bits
// over 240 seeded re-solves carrying committed pools, warm prices,
// round budgets 0-2 and deadlines: every pick, estimate, total, price,
// round count and method folds into one digest recorded before the
// estimator moved to interned label indices. Some seeds must win by
// the price loop and some by the round-robin repair, so both paths are
// under the pin.
func TestBatchOptimizeStatePinned(t *testing.T) {
	const want = hash.Hash(0x6717a2fc7b12de3b)
	h := hash.New()
	methods := map[string]int{}
	for seed := int64(0); seed < 240; seed++ {
		rng := rand.New(rand.NewSource(seed))
		jobs, capacity, freeAt := randomStateBatch(rng)
		st := BatchState{FreeAtSec: freeAt, Rounds: rng.Intn(3)}
		rng.Intn(3) // unused, kept so every later draw and the pinned digest stay in place
		if rng.Intn(2) == 0 {
			st.Prices = map[string]float64{}
			for _, l := range []string{"gp.2x", "mem.4x", "cpu.8x", "gp.16x"} {
				if _, ok := capacity[l]; ok && rng.Intn(3) != 0 {
					st.Prices[l] = rng.Float64() * 0.05
				}
			}
		}
		sel, err := BatchOptimizeState(jobs, capacity, st)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		methods[sel.Method]++
		h.Int(int(seed))
		if !sel.Feasible {
			h.Str("infeasible")
			continue
		}
		for _, js := range sel.Jobs {
			for _, j := range js.Pick {
				h.Int(j)
			}
			h.Int(js.TotalTime)
			h.F64(js.TotalCost)
		}
		for _, e := range sel.Estimates {
			h.Int(e.StartSec)
			h.Int(e.WaitSec)
			h.Int(e.FinishSec)
			if e.DeadlineMet {
				h.Int(1)
			} else {
				h.Int(0)
			}
		}
		h.Word(math.Float64bits(sel.TotalCost))
		h.Int(sel.MakespanSec)
		h.Int(sel.MissedDeadlines)
		for _, prices := range []map[string]float64{sel.Prices, sel.FinalPrices} {
			h.Int(len(prices))
			for _, l := range sortedKeys(prices) {
				h.Str(l)
				h.Word(math.Float64bits(prices[l]))
			}
		}
		h.Int(sel.Rounds)
		h.Str(sel.Method)
	}
	t.Logf("methods: %v", methods)
	if methods["priced"] == 0 || methods["round-robin"] == 0 {
		t.Fatalf("seeds won by %v: both the price loop and the repair must win some", methods)
	}
	if h != want {
		t.Fatalf("digest %016x, want %016x", uint64(h), uint64(want))
	}
}
