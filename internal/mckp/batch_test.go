package mckp

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// randomBatch builds a seeded random batch: jobs with 1-3 stages of
// 1-4 items each, labels drawn from a random capacity profile. Jobs
// carry no deadlines so the cost ordering against the independent
// baseline is exact (with deadlines the batch may rightly pay more to
// meet one the baseline misses).
func randomBatch(rng *rand.Rand) ([]BatchJob, Capacity) {
	labels := []string{"gp.2x", "mem.4x", "cpu.8x"}[:rng.Intn(3)+1]
	capacity := Capacity{}
	for _, l := range labels {
		capacity[l] = rng.Intn(2) + 1
	}
	jobs := make([]BatchJob, rng.Intn(4)+2)
	for i := range jobs {
		job := BatchJob{Name: string(rune('a' + i))}
		for l := 0; l < rng.Intn(3)+1; l++ {
			cl := Class{Name: string(rune('A' + l))}
			for j := 0; j < rng.Intn(4)+1; j++ {
				cl.Items = append(cl.Items, Item{
					Label:   labels[rng.Intn(len(labels))],
					TimeSec: rng.Intn(50) + 1,
					Cost:    float64(rng.Intn(200)+1) / 10,
				})
			}
			job.Classes = append(job.Classes, cl)
		}
		jobs[i] = job
	}
	return jobs, capacity
}

// TestQuickBatchCostNeverExceedsIndependent is the batch optimizer's
// bounding property: over 50 seeded random job sets, the joint plan's
// predicted total cost never exceeds the sum of independently
// optimized plans executed on the same shared fleet — the independent
// solution is always a candidate, so co-optimization can only trade
// cost away when a deadline demands it (and these sets carry none).
func TestQuickBatchCostNeverExceedsIndependent(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		jobs, capacity := randomBatch(rng)
		batch, err := BatchOptimize(jobs, capacity)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !batch.Feasible {
			t.Fatalf("seed %d: deadline-free batch infeasible", seed)
		}
		var independent float64
		picks := make([][]int, len(jobs))
		for i, job := range jobs {
			sel, err := SolveMinCost(job.Classes, effectiveDeadline(job))
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if !sel.Feasible {
				t.Fatalf("seed %d: independent job %q infeasible", seed, job.Name)
			}
			independent += sel.TotalCost
			picks[i] = sel.Pick
		}
		if batch.TotalCost > independent+1e-9 {
			t.Fatalf("seed %d: batch cost %g exceeds independent sum %g",
				seed, batch.TotalCost, independent)
		}
		// The batch estimate must be internally consistent: re-running
		// the estimator over the batch's own picks reproduces it.
		batchPicks := make([][]int, len(jobs))
		for i := range batch.Jobs {
			batchPicks[i] = batch.Jobs[i].Pick
		}
		ests, span := new(estimator).reset(jobs, capacity, nil).estimate(batchPicks)
		if span != batch.MakespanSec {
			t.Fatalf("seed %d: re-estimated makespan %d vs %d", seed, span, batch.MakespanSec)
		}
		for i, est := range ests {
			got := batch.Estimates[i]
			if est.StartSec != got.StartSec || est.FinishSec != got.FinishSec || est.WaitSec != got.WaitSec {
				t.Fatalf("seed %d job %d: estimate %+v vs %+v", seed, i, est, got)
			}
		}
	}
}

// TestBatchSpreadsContendedDeadlines: two identical jobs whose
// independent optima both pick the lone cheap machine must be pulled
// apart by the co-optimizer — one pays for the second label and both
// meet deadlines the independent plans blow.
func TestBatchSpreadsContendedDeadlines(t *testing.T) {
	mk := func(name string) BatchJob {
		return BatchJob{
			Name:        name,
			DeadlineSec: 15,
			Classes: []Class{{Name: "stage", Items: []Item{
				{Label: "a", TimeSec: 10, Cost: 1.0},
				{Label: "b", TimeSec: 10, Cost: 1.2},
			}}},
		}
	}
	jobs := []BatchJob{mk("j0"), mk("j1")}
	capacity := Capacity{"a": 1, "b": 1}
	batch, err := BatchOptimize(jobs, capacity)
	if err != nil {
		t.Fatal(err)
	}
	if !batch.Feasible {
		t.Fatal("infeasible")
	}
	if batch.MissedDeadlines != 0 {
		t.Fatalf("co-optimized batch still misses %d deadlines: %+v",
			batch.MissedDeadlines, batch.Estimates)
	}
	if batch.MakespanSec != 10 {
		t.Fatalf("makespan %d, want 10 (jobs in parallel on a and b)", batch.MakespanSec)
	}
	if math.Abs(batch.TotalCost-2.2) > 1e-9 {
		t.Fatalf("batch cost %g, want 2.2 (one job pays for label b)", batch.TotalCost)
	}
	// The independent plans both pick "a": serialized, job 1 finishes at
	// 20 and misses its 15 s deadline — the gap the batch closes.
	indep := [][]int{{0}, {0}}
	ests, span := new(estimator).reset(jobs, capacity, nil).estimate(indep)
	if span != 20 || ests[1].FinishSec != 20 || ests[1].WaitSec != 10 {
		t.Fatalf("independent estimate: span=%d ests=%+v", span, ests)
	}
}

// TestBatchRoundRobinRepair: when uniform shadow prices cannot
// separate identical jobs, the greedy round-robin re-planner must —
// three identical jobs, two machines, deadlines that force exactly
// one job onto the expensive fast item.
func TestBatchRoundRobinRepair(t *testing.T) {
	mk := func(name string) BatchJob {
		return BatchJob{
			Name:        name,
			DeadlineSec: 25,
			Classes: []Class{{Name: "stage", Items: []Item{
				{Label: "slow", TimeSec: 10, Cost: 1.0},
				{Label: "fast", TimeSec: 5, Cost: 5.0},
			}}},
		}
	}
	jobs := []BatchJob{mk("j0"), mk("j1"), mk("j2")}
	capacity := Capacity{"slow": 1, "fast": 1}
	batch, err := BatchOptimize(jobs, capacity)
	if err != nil {
		t.Fatal(err)
	}
	if batch.MissedDeadlines != 0 {
		t.Fatalf("batch misses %d deadlines (method %s): %+v",
			batch.MissedDeadlines, batch.Method, batch.Estimates)
	}
	// All three on "slow" would finish at 30 > 25; at least one job must
	// have moved to "fast".
	fast := 0
	for _, sel := range batch.Jobs {
		if jobs[0].Classes[0].Items[sel.Pick[0]].Label == "fast" {
			fast++
		}
	}
	if fast == 0 {
		t.Fatalf("no job moved to the fast label: %+v", batch.Jobs)
	}
}

// TestBatchValidation: bad inputs error, a job infeasible alone makes
// the batch infeasible, and per-job deadlines are honored in the DP.
func TestBatchValidation(t *testing.T) {
	good := BatchJob{Name: "g", Classes: []Class{{Name: "s", Items: []Item{{Label: "a", TimeSec: 5, Cost: 1}}}}}
	if _, err := BatchOptimize(nil, Capacity{"a": 1}); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := BatchOptimize([]BatchJob{good}, nil); err == nil {
		t.Fatal("empty capacity accepted")
	}
	if _, err := BatchOptimize([]BatchJob{good}, Capacity{"a": 0}); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := BatchOptimize([]BatchJob{good}, Capacity{"b": 1}); err == nil {
		t.Fatal("item label outside capacity accepted")
	}
	empty := BatchJob{Name: "e", Classes: []Class{{Name: "s"}}}
	if _, err := BatchOptimize([]BatchJob{empty}, Capacity{"a": 1}); err == nil {
		t.Fatal("empty class accepted")
	}
	negative := good
	negative.DeadlineSec = -1
	if _, err := BatchOptimize([]BatchJob{negative}, Capacity{"a": 1}); err == nil {
		t.Fatal("negative deadline accepted")
	}
	// A job that cannot meet its own deadline even alone: infeasible.
	tight := good
	tight.DeadlineSec = 3
	batch, err := BatchOptimize([]BatchJob{tight}, Capacity{"a": 1})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Feasible {
		t.Fatal("unmeetable per-job deadline reported feasible")
	}
}

// TestBatchStateZeroValueMatchesBatchOptimize pins the warm-start
// API's compatibility contract: BatchOptimizeState with a zero state
// reproduces BatchOptimize exactly — same picks, totals, estimates,
// method, rounds — over 25 seeded random batches.
func TestBatchStateZeroValueMatchesBatchOptimize(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		jobs, capacity := randomBatch(rng)
		want, err := BatchOptimize(jobs, capacity)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, err := BatchOptimizeState(jobs, capacity, BatchState{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got.TotalCost != want.TotalCost || got.MakespanSec != want.MakespanSec ||
			got.Method != want.Method || got.Rounds != want.Rounds ||
			got.MissedDeadlines != want.MissedDeadlines {
			t.Fatalf("seed %d: got %+v, want %+v", seed, got, want)
		}
		for i := range want.Jobs {
			for l, j := range want.Jobs[i].Pick {
				if got.Jobs[i].Pick[l] != j {
					t.Fatalf("seed %d: job %d pick diverges", seed, i)
				}
			}
		}
	}
}

// TestBatchReadySecShiftsSchedule pins the ReadySec semantics: a job
// ready at T starts no earlier than T, its estimate reports absolute
// times, and its DP budget is the residue deadline-ready (a deadline
// leaving less busy time than the fastest plan is infeasible).
func TestBatchReadySecShiftsSchedule(t *testing.T) {
	classes := []Class{{Name: "syn", Items: []Item{
		{Label: "gp", TimeSec: 100, Cost: 1},
		{Label: "gp", TimeSec: 50, Cost: 5},
	}}}
	capacity := Capacity{"gp": 1}

	sel, err := BatchOptimize([]BatchJob{
		{Name: "late", Classes: classes, ReadySec: 200, DeadlineSec: 320},
	}, capacity)
	if err != nil {
		t.Fatal(err)
	}
	if !sel.Feasible || sel.MissedDeadlines != 0 {
		t.Fatalf("selection = %+v", sel)
	}
	est := sel.Estimates[0]
	if est.StartSec != 200 || est.FinishSec != 300 {
		t.Fatalf("estimate = %+v, want start 200 finish 300", est)
	}
	// Budget 320-200=120 admits the 100s item; 140 would admit only it
	// too, but 130-... shrink the deadline so only the 50s item fits.
	sel, err = BatchOptimize([]BatchJob{
		{Name: "tight", Classes: classes, ReadySec: 200, DeadlineSec: 260},
	}, capacity)
	if err != nil {
		t.Fatal(err)
	}
	if !sel.Feasible {
		t.Fatal("tight job should remain feasible via the faster item")
	}
	if got := sel.Jobs[0].Pick[0]; got != 1 {
		t.Fatalf("tight job picked item %d, want the 50s upgrade (1)", got)
	}
	// A deadline already blown by the ready time is infeasible.
	sel, err = BatchOptimize([]BatchJob{
		{Name: "doomed", Classes: classes, ReadySec: 200, DeadlineSec: 210},
	}, capacity)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Feasible {
		t.Fatal("doomed job should be infeasible")
	}
}

// TestBatchFreeAtSeedsCommittedCapacity pins the FreeAtSec seeding: a
// machine committed until T delays work queued on it, exactly like a
// lease the estimator cannot see otherwise.
func TestBatchFreeAtSeedsCommittedCapacity(t *testing.T) {
	classes := []Class{{Name: "syn", Items: []Item{{Label: "gp", TimeSec: 60, Cost: 1}}}}
	jobs := []BatchJob{{Name: "a", Classes: classes}}
	sel, err := BatchOptimizeState(jobs, Capacity{"gp": 2},
		BatchState{FreeAtSec: map[string][]int{"gp": {500, 90}}})
	if err != nil {
		t.Fatal(err)
	}
	// Earliest-free: machine 1 frees at 90, machine 0 at 500.
	if est := sel.Estimates[0]; est.StartSec != 90 || est.FinishSec != 150 {
		t.Fatalf("estimate = %+v, want start 90 finish 150", est)
	}
	// Extra seed entries beyond capacity are ignored; missing mean free.
	sel, err = BatchOptimizeState(jobs, Capacity{"gp": 2},
		BatchState{FreeAtSec: map[string][]int{"gp": {500, 90, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if est := sel.Estimates[0]; est.StartSec != 90 {
		t.Fatalf("estimate = %+v, want start 90", est)
	}
}

// TestBatchWarmPricesCarry pins the warm-start loop: FinalPrices is
// always populated, and feeding it back with a one-round budget keeps
// the solution at least as good as the cold independent baseline (the
// independent candidate stays in the running).
func TestBatchWarmPricesCarry(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed + 100))
		jobs, capacity := randomBatch(rng)
		cold, err := BatchOptimize(jobs, capacity)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if cold.FinalPrices == nil {
			t.Fatalf("seed %d: FinalPrices nil", seed)
		}
		warm, err := BatchOptimizeState(jobs, capacity,
			BatchState{Prices: cold.FinalPrices, Rounds: 1})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !warm.Feasible {
			t.Fatalf("seed %d: warm re-solve infeasible", seed)
		}
		// Deadline-free: the independent candidate bounds both.
		if warm.TotalCost > cold.TotalCost+1e-9 {
			t.Fatalf("seed %d: warm cost %g exceeds cold %g", seed, warm.TotalCost, cold.TotalCost)
		}
	}
}

// TestBatchRefusesBadWarmPrices: a warm price that is NaN, infinite or
// negative is an error naming the least such label, whatever else the
// vector holds. Accepted, a NaN rode the damped update into
// FinalPrices, and a caller feeding those back banned its label from
// every later priced solve.
func TestBatchRefusesBadWarmPrices(t *testing.T) {
	capacity := Capacity{"a": 1, "b": 1, "c": 1}
	jobs := []BatchJob{
		{Name: "x", DeadlineSec: 100, Classes: []Class{{Name: "s", Items: []Item{{Label: "a", TimeSec: 30, Cost: 1}, {Label: "b", TimeSec: 20, Cost: 2}}}}},
		{Name: "y", DeadlineSec: 100, Classes: []Class{{Name: "s", Items: []Item{{Label: "a", TimeSec: 30, Cost: 1}, {Label: "c", TimeSec: 25, Cost: 2}}}}},
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.5} {
		for _, rounds := range []int{1, 8} {
			st := BatchState{Prices: map[string]float64{"a": 0.01, "c": bad, "b": bad}, Rounds: rounds}
			_, err := BatchOptimizeState(jobs, capacity, st)
			if err == nil || !strings.Contains(err.Error(), `label "b"`) {
				t.Errorf("warm price %g, %d rounds: got error %v, want one naming label \"b\"", bad, rounds, err)
			}
		}
	}
	if _, err := BatchOptimizeState(jobs, capacity, BatchState{Prices: map[string]float64{"a": 0, "b": math.MaxFloat64}}); err != nil {
		t.Errorf("zero and the largest finite warm price refused: %v", err)
	}
}
