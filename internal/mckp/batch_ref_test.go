package mckp

import (
	"math/rand"
	"slices"
	"testing"
)

// The map-keyed schedule estimator as it was before BatchOptimizeState
// interned its capacity labels: a fresh map of machine pools per
// evaluation and string-keyed busy and wait totals. It defines what
// estimator.estimate must produce — every estimate, the makespan,
// every label's busy and wait seconds and, so that the machine
// tie-break is pinned too, the machine pools it leaves behind (the one
// change to the old code: it returns them).

// refCapacityPools seeds the estimator's per-label machine free-time
// pools from the capacity profile, pre-loaded with any committed
// free-at times (nil freeAt means every machine free at 0).
func refCapacityPools(capacity Capacity, freeAt map[string][]int) map[string][]int {
	pools := map[string][]int{}
	for label, n := range capacity {
		pool := make([]int, n)
		for i, t := range freeAt[label] {
			if i >= n {
				break
			}
			if t > 0 {
				pool[i] = t
			}
		}
		pools[label] = pool
	}
	return pools
}

// refBatchEstimate predicts the schedule the picks imply on the shared
// fleet with the flow scheduler's own discipline in whole seconds:
// stages are the placement unit, jobs queue FIFO by ready time (ties
// toward the earlier job), and each stage takes the earliest-free
// machine of its label (ties toward the lower machine index). It
// returns the per-job estimates, the makespan, and per-label busy and
// wait totals — the congestion signal the price loop feeds on.
func refBatchEstimate(jobs []BatchJob, picks [][]int, capacity Capacity, freeAt map[string][]int) (ests []JobEstimate, makespan int, busy, wait map[string]int, free map[string][]int) {
	type runner struct {
		job   int
		stage int
		ready int
	}
	free = refCapacityPools(capacity, freeAt)
	busy = map[string]int{}
	wait = map[string]int{}
	ests = make([]JobEstimate, len(jobs))
	var queue []*runner
	for i := range jobs {
		if len(jobs[i].Classes) > 0 {
			queue = append(queue, &runner{job: i, ready: jobs[i].ReadySec})
		}
	}
	started := make([]bool, len(jobs))
	for len(queue) > 0 {
		best := 0
		for i := 1; i < len(queue); i++ {
			if queue[i].ready < queue[best].ready {
				best = i
			}
		}
		r := queue[best]
		job := jobs[r.job]
		it := job.Classes[r.stage].Items[picks[r.job][r.stage]]
		machines := free[it.Label]
		m := 0
		for i := 1; i < len(machines); i++ {
			if machines[i] < machines[m] {
				m = i
			}
		}
		start := r.ready
		if machines[m] > start {
			start = machines[m]
		}
		free[it.Label][m] = start + it.TimeSec
		busy[it.Label] += it.TimeSec
		wait[it.Label] += start - r.ready
		if !started[r.job] {
			started[r.job] = true
			ests[r.job].StartSec = start
		}
		ests[r.job].WaitSec += start - r.ready
		r.ready = start + it.TimeSec
		r.stage++
		if r.stage == len(job.Classes) {
			ests[r.job].FinishSec = r.ready
			if r.ready > makespan {
				makespan = r.ready
			}
			queue = append(queue[:best], queue[best+1:]...)
		}
	}
	return ests, makespan, busy, wait, free
}

// TestBatchEstimateMatchesReference: over 400 seeded batches (1-4
// labels, one sometimes named by no item; 1-3 machines each; committed
// pools with missing labels, entries past capacity and non-positive
// times; ready times drawn from a few values so both tie-breaks
// decide), every estimate, the makespan, every label's busy and wait
// seconds and its final machine pools equal the map-keyed reference's. Each estimator
// evaluates three pick sets in a row, so its scratch must not carry
// over between evaluations.
func TestBatchEstimateMatchesReference(t *testing.T) {
	ties := 0
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		jobs, capacity, freeAt := randomStateBatch(rng)
		est := newEstimator(jobs, capacity, freeAt)
		for trial := 0; trial < 3; trial++ {
			picks := make([][]int, len(jobs))
			for i, job := range jobs {
				for _, cl := range job.Classes {
					picks[i] = append(picks[i], rng.Intn(len(cl.Items)))
				}
			}
			wantEsts, wantSpan, wantBusy, wantWait, wantFree := refBatchEstimate(jobs, picks, capacity, freeAt)
			gotEsts, gotSpan := est.estimate(picks)
			if gotSpan != wantSpan {
				t.Fatalf("seed %d trial %d: makespan %d, reference %d", seed, trial, gotSpan, wantSpan)
			}
			for i := range wantEsts {
				if gotEsts[i] != wantEsts[i] {
					t.Fatalf("seed %d trial %d job %d: estimate %+v, reference %+v",
						seed, trial, i, gotEsts[i], wantEsts[i])
				}
			}
			for k, label := range est.labels {
				if est.busy[k] != wantBusy[label] || est.wait[k] != wantWait[label] {
					t.Fatalf("seed %d trial %d label %s: busy/wait %d/%d, reference %d/%d",
						seed, trial, label, est.busy[k], est.wait[k], wantBusy[label], wantWait[label])
				}
				// Machines of one label are interchangeable in the estimate,
				// so only the pools show which of two equally free machines
				// took a stage.
				if got := est.free[est.offset[k]:est.offset[k+1]]; !slices.Equal(got, wantFree[label]) {
					t.Fatalf("seed %d trial %d label %s: machine pools %v, reference %v",
						seed, trial, label, got, wantFree[label])
				}
			}
			if len(wantBusy) > len(est.labels) || len(wantWait) > len(est.labels) {
				t.Fatalf("seed %d trial %d: reference totals name labels outside the capacity", seed, trial)
			}
			for i := 1; i < len(jobs); i++ {
				if jobs[i].ReadySec == jobs[0].ReadySec {
					ties++
					break
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no batch had equal ready times; the FIFO tie-break went untested")
	}
}

// TestBatchEstimateAllocs is the guard that an evaluation stays off
// the heap: estimating a fixed 24-job, 4-stage batch allocates only
// the estimates it returns (the reference allocates its pools, maps
// and runners every time).
func TestBatchEstimateAllocs(t *testing.T) {
	labels := []string{"gp.2x", "mem.4x", "cpu.8x"}
	capacity := Capacity{"gp.2x": 2, "mem.4x": 3, "cpu.8x": 1}
	jobs := make([]BatchJob, 24)
	picks := make([][]int, len(jobs))
	for i := range jobs {
		jobs[i] = BatchJob{Name: string(rune('a' + i)), ReadySec: 5 * (i % 4)}
		for l := 0; l < 4; l++ {
			cl := Class{Name: string(rune('A' + l))}
			for j := 0; j < 3; j++ {
				cl.Items = append(cl.Items, Item{Label: labels[(i+l+j)%3], TimeSec: 10 + i + j, Cost: 1})
			}
			jobs[i].Classes = append(jobs[i].Classes, cl)
			picks[i] = append(picks[i], (i+l)%3)
		}
	}
	est := newEstimator(jobs, capacity, map[string][]int{"mem.4x": {30, 0, 12}})
	if got := testing.AllocsPerRun(100, func() { est.estimate(picks) }); got > 1 {
		t.Fatalf("estimate allocates %.0f times per evaluation, want at most 1", got)
	}
}
