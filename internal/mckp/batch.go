package mckp

import (
	"fmt"
	"maps"
	"math"
	"slices"
)

// This file is the batch-level formulation of the deployment problem:
// N flows' per-stage choice tables co-optimized against a shared
// fleet's capacity instead of each flow's knapsack solved in
// isolation. Independently-optimized plans all gravitate to the same
// cheap instance types, queue behind each other on a bounded fleet,
// and blow the very deadlines the per-job DP certified; BatchOptimize
// closes that gap with a Lagrangian price-adjustment loop — fleet
// congestion enters each job's DP as shadow prices on instance-type
// labels — plus a greedy round-robin re-planner as a fallback bound.
// Everything here is integral-seconds arithmetic over the same FIFO
// earliest-free placement discipline the flow scheduler simulates, so
// the batch estimate and the event simulation agree on ordering.

// BatchJob is one flow in a batch: its per-stage choice table (item
// labels name instance types, the currency shared with Capacity) and
// its completion deadline.
type BatchJob struct {
	Name    string
	Classes []Class
	// DeadlineSec is the job's completion deadline in whole seconds,
	// measured against its predicted finish time under contention
	// (queueing included); 0 means none.
	DeadlineSec int
	// ReadySec is the earliest second the job may start — the arrival
	// (or checkpoint) time of a job entering a rolling-horizon re-solve.
	// The zero value reproduces the one-shot batch exactly: every job
	// ready at time zero, the DP budget the full deadline.
	ReadySec int
}

// Capacity is the shared fleet's capacity profile: instance-type label
// to machine count (cloud.Fleet.Profile in mckp currency).
type Capacity map[string]int

// JobEstimate is one job's predicted placement in the batch schedule,
// in whole seconds: when it starts, how long it queues across stages,
// when it finishes, and whether that meets its deadline.
type JobEstimate struct {
	StartSec, WaitSec, FinishSec int
	DeadlineMet                  bool
}

// BatchSelection is a joint solution: one Selection per job (aligned
// with the input jobs, each against its own Classes) plus the
// contention-aware schedule estimate the picks imply on the shared
// fleet.
type BatchSelection struct {
	Feasible bool
	Jobs     []Selection
	// TotalCost sums the jobs' selected item costs — queueing never
	// changes a bill under per-second lease pricing, so this is exact.
	TotalCost float64
	// MakespanSec is the predicted batch completion time under the
	// capacity constraints; Estimates holds the per-job placements.
	MakespanSec int
	Estimates   []JobEstimate
	// MissedDeadlines counts jobs whose predicted finish exceeds their
	// deadline even after co-optimization.
	MissedDeadlines int
	// Prices holds the final per-label shadow prices (USD per busy
	// second) the winning candidate was solved under; all zero when the
	// independent solution already won.
	Prices map[string]float64
	// Rounds counts price-adjustment iterations run; Method names the
	// winning candidate ("independent", "warm", "priced", "round-robin").
	Rounds int
	Method string
	// FinalPrices is the price vector after the last adjustment round,
	// whichever candidate won — the warm-start carrier a rolling-horizon
	// caller feeds back through BatchState.Prices at the next event.
	FinalPrices map[string]float64
}

// BatchState carries warm-start state into BatchOptimizeState — the
// incremental re-solve a rolling-horizon serving layer runs at every
// arrival/completion event. The zero value reproduces BatchOptimize
// exactly.
type BatchState struct {
	// FreeAtSec seeds the schedule estimator's per-label machine pools
	// with initial free times (absolute seconds, in the fleet's
	// within-label instance order) — capacity already committed to
	// in-flight work. Missing labels (or entries beyond a label's
	// capacity) default to 0 (free now); extra entries are ignored.
	FreeAtSec map[string][]int
	// Prices warm-starts the Lagrangian shadow prices from a previous
	// solve: consecutive events see nearly the same congestion, so the
	// loop converges in a round or two instead of starting cold.
	Prices map[string]float64
	// Rounds bounds the price-adjustment iterations; 0 means the
	// default 8. Warm-started re-solves typically pass 1 or 2.
	Rounds int
	// Scratch, when non-nil, keeps the per-job DP tables from this call
	// to the next (nil: each call its own); it changes no result. Two
	// calls must not share one at the same time.
	Scratch *Scratch
}

// batchValidate checks the batch inputs: non-empty jobs and capacity,
// every class valid, and every item placeable on the shared fleet.
func batchValidate(jobs []BatchJob, capacity Capacity) error {
	if len(jobs) == 0 {
		return fmt.Errorf("mckp: batch has no jobs")
	}
	if len(capacity) == 0 {
		return fmt.Errorf("mckp: batch has no fleet capacity")
	}
	for label, n := range capacity {
		if n < 1 {
			return fmt.Errorf("mckp: capacity %d for label %q", n, label)
		}
	}
	for _, job := range jobs {
		if job.DeadlineSec < 0 {
			return fmt.Errorf("mckp: job %q has negative deadline", job.Name)
		}
		if job.ReadySec < 0 {
			return fmt.Errorf("mckp: job %q has negative ready time", job.Name)
		}
		if err := validate(job.Classes, 0); err != nil {
			return fmt.Errorf("mckp: job %q: %w", job.Name, err)
		}
		for _, cl := range job.Classes {
			for _, it := range cl.Items {
				if _, ok := capacity[it.Label]; !ok {
					return fmt.Errorf("mckp: job %q stage %q item %q names no fleet capacity",
						job.Name, cl.Name, it.Label)
				}
			}
		}
	}
	return nil
}

// effectiveDeadline is the DP budget for one job: the busy time its
// deadline leaves after its ready time (a job cannot start earlier, so
// at most deadline-ready seconds of work fit), or — deadline-free jobs
// — the slowest possible plan, which every selection fits under.
func effectiveDeadline(job BatchJob) int {
	if job.DeadlineSec > 0 {
		return max(job.DeadlineSec-job.ReadySec, 0)
	}
	return MaxTotalTime(job.Classes)
}

// candidate is one joint plan under evaluation.
type candidate struct {
	method string
	picks  [][]int
	sels   []Selection
	ests   []JobEstimate
	cost   float64
	span   int
	missed int
	prices map[string]float64
}

// score orders candidates: fewest missed deadlines, then cheapest,
// then shortest makespan. Lower is better.
func (c *candidate) better(o *candidate) bool {
	if c.missed != o.missed {
		return c.missed < o.missed
	}
	if math.Abs(c.cost-o.cost) > 1e-9 {
		return c.cost < o.cost
	}
	return c.span < o.span
}

// evaluate fills a candidate's schedule estimate and score fields;
// est's busy and wait then hold the candidate's per-label totals.
func (c *candidate) evaluate(est *estimator) {
	jobs := est.jobs
	c.ests, c.span = est.estimate(c.picks)
	c.cost, c.missed = 0, 0
	for i, sel := range c.sels {
		c.cost += sel.TotalCost
		met := jobs[i].DeadlineSec <= 0 || c.ests[i].FinishSec <= jobs[i].DeadlineSec
		c.ests[i].DeadlineMet = met
		if !met {
			c.missed++
		}
	}
}

// estimator predicts the schedule a set of picks implies on the shared
// fleet. BatchOptimizeState resets the one its Scratch keeps at every
// call: the capacity labels interned in sorted order, every item's
// label index and runtime in flat slices, and the machine pools seeded
// once from the committed free times, so an evaluation neither hashes a
// label nor allocates beyond the estimates it returns.
type estimator struct {
	jobs   []BatchJob
	labels []string
	index  map[string]int
	// Job i's stages are stageAt[i]..stageAt[i+1]-1; stage s's items
	// start at itemAt[s] in label (interned label index) and time.
	stageAt, itemAt []int
	label, time     []int
	// Label k's machines are seed[offset[k]:offset[k+1]], seeded with
	// the committed free times.
	offset, seed []int
	// Scratch for one evaluation. After estimate returns, busy and wait
	// hold its per-label totals until the next call.
	free, busy, wait, ready, stage, queue []int
}

// sized returns s with n zero elements, in s's storage when it fits.
func sized[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// reset makes e the estimator of jobs: it interns the batch's labels
// and seeds the machine pools from the capacity profile, pre-loaded
// with any committed free-at times (nil freeAt means every machine free
// at 0), all in e's own storage. The jobs must have passed
// batchValidate.
func (e *estimator) reset(jobs []BatchJob, capacity Capacity, freeAt map[string][]int) *estimator {
	e.jobs, e.labels = jobs, e.labels[:0]
	for label := range capacity {
		e.labels = append(e.labels, label)
	}
	slices.Sort(e.labels)
	if e.index == nil {
		e.index = make(map[string]int, len(e.labels))
	}
	clear(e.index)
	e.offset = sized(e.offset, len(e.labels)+1)
	for k, label := range e.labels {
		e.index[label] = k
		e.offset[k+1] = e.offset[k] + capacity[label]
	}
	e.seed = sized(e.seed, e.offset[len(e.labels)])
	for k, label := range e.labels {
		pool := e.seed[e.offset[k]:e.offset[k+1]]
		for i, t := range freeAt[label][:min(len(freeAt[label]), len(pool))] {
			pool[i] = max(t, 0)
		}
	}
	e.stageAt = sized(e.stageAt, len(jobs)+1)
	e.itemAt, e.label, e.time = e.itemAt[:0], e.label[:0], e.time[:0]
	for i, job := range jobs {
		e.stageAt[i+1] = e.stageAt[i] + len(job.Classes)
		for _, cl := range job.Classes {
			e.itemAt = append(e.itemAt, len(e.label))
			for _, it := range cl.Items {
				e.label = append(e.label, e.index[it.Label])
				e.time = append(e.time, it.TimeSec)
			}
		}
	}
	e.free = sized(e.free, len(e.seed))
	e.busy = sized(e.busy, len(e.labels))
	e.wait = sized(e.wait, len(e.labels))
	e.ready = sized(e.ready, len(jobs))
	e.stage = sized(e.stage, len(jobs))
	e.queue = slices.Grow(e.queue[:0], len(jobs))
	return e
}

// estimate runs the flow scheduler's own discipline in whole seconds:
// stages are the placement unit, jobs queue FIFO by ready time (ties
// toward the earlier job), and each stage takes the earliest-free
// machine of its label (ties toward the lower machine index). It
// returns the per-job estimates and the makespan, and leaves per-label
// busy and wait totals — the congestion signal the price loop feeds
// on — in e.busy and e.wait.
func (e *estimator) estimate(picks [][]int) (ests []JobEstimate, makespan int) {
	copy(e.free, e.seed)
	clear(e.busy)
	clear(e.wait)
	ests = make([]JobEstimate, len(e.jobs))
	queue := e.queue[:0]
	for i, job := range e.jobs {
		queue = append(queue, i)
		e.ready[i], e.stage[i] = job.ReadySec, 0
	}
	for len(queue) > 0 {
		best := 0
		for q := 1; q < len(queue); q++ {
			if e.ready[queue[q]] < e.ready[queue[best]] {
				best = q
			}
		}
		j := queue[best]
		s := e.stageAt[j] + e.stage[j]
		it := e.itemAt[s] + picks[j][e.stage[j]]
		k, dur := e.label[it], e.time[it]
		machines := e.free[e.offset[k]:e.offset[k+1]]
		m := 0
		for i := 1; i < len(machines); i++ {
			if machines[i] < machines[m] {
				m = i
			}
		}
		ready := e.ready[j]
		start := max(ready, machines[m])
		machines[m] = start + dur
		e.busy[k] += dur
		e.wait[k] += start - ready
		if e.stage[j] == 0 {
			ests[j].StartSec = start
		}
		ests[j].WaitSec += start - ready
		e.ready[j] = start + dur
		e.stage[j]++
		if s+1 == e.stageAt[j+1] {
			ests[j].FinishSec = e.ready[j]
			makespan = max(makespan, e.ready[j])
			queue = append(queue[:best], queue[best+1:]...)
		}
	}
	return ests, makespan
}

// BatchOptimize co-optimizes N jobs' plans against a shared fleet. It
// seeds with each job's independent min-cost DP, then runs a
// Lagrangian price-adjustment loop: congested instance labels (those
// whose queue waits dominate the estimate) accrue a shadow price per
// busy second, each job's DP re-solves under the priced costs — jobs
// whose slack is cheap to move migrate off the contended types — and
// the best candidate under (missed deadlines, cost, makespan) wins.
// A greedy round-robin re-planner then repairs any remaining misses
// stage by stage as a fallback bound. The independent solution is
// always a candidate and fewer missed deadlines rank above cost, so
// the batch never costs more than the sum of independently-optimized
// plans on the same fleet unless paying more recovers a deadline the
// independent plans miss — deadline-free, the bound is unconditional
// (the tested property).
func BatchOptimize(jobs []BatchJob, capacity Capacity) (BatchSelection, error) {
	return BatchOptimizeState(jobs, capacity, BatchState{})
}

// BatchOptimizeState is BatchOptimize with explicit warm-start state —
// the incremental form a rolling-horizon re-optimizer calls at every
// arrival/completion event: committed capacity seeds the estimator's
// machine pools, the previous event's shadow prices seed the Lagrangian
// loop, and the round budget shrinks because consecutive events see
// nearly the same congestion. The zero state reproduces BatchOptimize
// exactly.
func BatchOptimizeState(jobs []BatchJob, capacity Capacity, st BatchState) (BatchSelection, error) {
	if err := batchValidate(jobs, capacity); err != nil {
		return BatchSelection{}, err
	}

	// A NaN, infinite or negative warm price would ride into every later
	// price vector; it is refused, naming the least such label.
	bad, found := "", false
	for label, p := range st.Prices {
		if !(p >= 0 && p <= math.MaxFloat64) && (!found || label < bad) {
			bad, found = label, true
		}
	}
	if found {
		return BatchSelection{}, fmt.Errorf("mckp: warm price %g for label %q", st.Prices[bad], bad)
	}

	scratch := st.Scratch
	if scratch == nil {
		scratch = &Scratch{}
	}
	scratch.begin()
	est := scratch.est.reset(jobs, capacity, st.FreeAtSec)
	solve := func(method string, prices map[string]float64) (*candidate, error) {
		sels, err := scratch.solve(est, prices)
		if sels == nil || err != nil {
			return nil, err // no error: this pricing starves a job; skip the candidate
		}
		c := &candidate{method: method, prices: prices, picks: make([][]int, len(jobs)), sels: sels}
		for i, sel := range sels {
			c.picks[i] = sel.Pick
		}
		return c, nil
	}

	// Candidate zero: every job independently optimal, prices all zero.
	// If any job cannot meet its own deadline even alone and uncontended
	// the batch is infeasible.
	base, err := solve("independent", map[string]float64{})
	if err != nil {
		return BatchSelection{}, err
	}
	if base == nil {
		return BatchSelection{Feasible: false, Jobs: make([]Selection, len(jobs))}, nil
	}
	base.evaluate(est)
	bestCand := base

	// Price loop: shadow prices start at zero (or the caller's warm
	// vector) and chase congestion. The unit price is the batch's
	// average dollar-per-busy-second, so a label whose queue wait equals
	// its busy time roughly doubles in apparent cost — enough to push
	// marginal jobs to their next-best type without drowning the true
	// prices. Each round reads the busy and wait totals the last
	// evaluated candidate left in est.
	var busyTotal int
	for _, b := range est.busy {
		busyTotal += b
	}
	unit := 0.0
	if busyTotal > 0 {
		unit = base.cost / float64(busyTotal)
	}
	rounds := st.Rounds
	if rounds <= 0 {
		rounds = 8
	}
	prices := map[string]float64{}
	if len(st.Prices) > 0 && unit > 0 {
		// Warm start: re-solve under the previous event's prices before
		// adjusting, so one round suffices when congestion is unchanged.
		prices = maps.Clone(st.Prices)
		warm, err := solve("warm", prices)
		if err != nil {
			return BatchSelection{}, err
		}
		if warm != nil {
			warm.evaluate(est)
			if warm.better(bestCand) {
				bestCand = warm
			}
		}
	}
	roundsRun := 0
	for round := 1; round <= rounds && unit > 0; round++ {
		congested := false
		next := map[string]float64{}
		for k, label := range est.labels {
			congestion := 0.0
			if est.busy[k] > 0 {
				congestion = float64(est.wait[k]) / float64(est.busy[k])
			}
			// Damped update: half the old price plus the fresh congestion
			// signal, so prices both rise under sustained queueing and
			// decay once jobs have moved away.
			next[label] = float64(0.5*prices[label]) + float64(unit*congestion)
			if next[label] > 1e-12 {
				congested = true
			}
		}
		prices = next
		roundsRun = round
		if !congested {
			break
		}
		cand, err := solve("priced", prices)
		if err != nil {
			return BatchSelection{}, err
		}
		if cand == nil {
			break // pricing made some job infeasible; stop escalating
		}
		cand.evaluate(est)
		if cand.better(bestCand) {
			bestCand = cand
		}
	}

	// Fallback bound: greedy round-robin repair of the best candidate.
	// While predicted misses remain, take the worst-missing job and try
	// every single-stage re-pick, keeping the move that most improves
	// (missed, job finish, cost). Bounded by the total item count so it
	// always terminates.
	repaired := repairMisses(est, bestCand)
	if repaired != nil && repaired.better(bestCand) {
		bestCand = repaired
	}

	return BatchSelection{
		Feasible:        true,
		Jobs:            bestCand.sels,
		TotalCost:       bestCand.cost,
		MakespanSec:     bestCand.span,
		Estimates:       bestCand.ests,
		Prices:          bestCand.prices,
		Rounds:          roundsRun,
		Method:          bestCand.method,
		FinalPrices:     prices,
		MissedDeadlines: bestCand.missed, // every candidate is evaluated
	}, nil
}

// repairMisses is the greedy round-robin re-planner: starting from a
// candidate, repeatedly re-pick one stage of the worst deadline-missing
// job until no move improves the estimate. Returns nil when the start
// already meets every deadline. Picks and Selections are never mutated
// once built, so a trial shares every job's but the re-picked one's.
func repairMisses(est *estimator, start *candidate) *candidate {
	if start.missed == 0 {
		return nil
	}
	jobs := est.jobs
	first := *start
	first.method = "round-robin"
	first.picks, first.sels = slices.Clone(start.picks), slices.Clone(start.sels)
	cur := &first

	for step := 0; step < len(est.label) && cur.missed > 0; step++ {
		// The worst offender: largest finish-past-deadline overrun, ties
		// toward the earlier job.
		worst, overrun := -1, 0
		for i, e := range cur.ests {
			if jobs[i].DeadlineSec <= 0 || e.DeadlineMet {
				continue
			}
			if over := e.FinishSec - jobs[i].DeadlineSec; worst < 0 || over > overrun {
				worst, overrun = i, over
			}
		}
		if worst < 0 {
			break
		}
		// Trials re-pick job worst in cur's own slices; a new best is copied.
		var bestMove *candidate
		trial, own := *cur, cur.sels[worst]
		for l := range jobs[worst].Classes {
			for j := range jobs[worst].Classes[l].Items {
				if j == own.Pick[l] {
					continue
				}
				picks := append([]int(nil), own.Pick...)
				picks[l] = j
				sel := retotal(jobs[worst], picks)
				if sel.TotalTime > effectiveDeadline(jobs[worst]) {
					continue // busy time alone already blows the budget
				}
				trial.picks[worst], trial.sels[worst] = sel.Pick, sel
				trial.evaluate(est)
				if (trial.missed < cur.missed ||
					(trial.missed == cur.missed && trial.ests[worst].FinishSec < cur.ests[worst].FinishSec)) &&
					(bestMove == nil || trial.better(bestMove)) {
					move := trial
					move.picks, move.sels = slices.Clone(trial.picks), slices.Clone(trial.sels)
					bestMove = &move
				}
			}
		}
		cur.picks[worst], cur.sels[worst] = own.Pick, own
		if bestMove == nil {
			break
		}
		cur = bestMove
	}
	return cur
}

// retotal rebuilds a job's Selection from explicit picks, which it
// keeps as the Selection's Pick.
func retotal(job BatchJob, picks []int) Selection {
	sel := Selection{Feasible: true, Pick: picks}
	for l, j := range picks {
		it := job.Classes[l].Items[j]
		sel.TotalTime += it.TimeSec
		sel.TotalCost += it.Cost
	}
	return sel
}
