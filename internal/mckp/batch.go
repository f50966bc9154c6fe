package mckp

import (
	"fmt"
	"math"
	"sort"

	"edacloud/internal/par"
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
	// Workers bounds how many per-job DP solves run concurrently per
	// round; 0 means GOMAXPROCS. Results are identical for every value.
	Workers int
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
		budget := job.DeadlineSec - job.ReadySec
		if budget < 0 {
			budget = 0
		}
		return budget
	}
	slowest := 0
	for _, cl := range job.Classes {
		worst := 0
		for _, it := range cl.Items {
			if it.TimeSec > worst {
				worst = it.TimeSec
			}
		}
		slowest += worst
	}
	return slowest
}

// pricedSolve runs one job's min-cost DP with each item's cost raised
// by the shadow price of its label times its runtime — congestion
// rendered as money — and returns picks plus true (unpriced) totals:
// the priced costs only steer the picks.
func pricedSolve(job BatchJob, prices map[string]float64) (Selection, error) {
	var negative error
	sel, _ := solveDP(job.Classes, effectiveDeadline(job), func(it Item) float64 {
		cost := it.Cost
		if len(prices) > 0 {
			cost += prices[it.Label] * float64(it.TimeSec)
		}
		if cost < 0 && negative == nil {
			negative = fmt.Errorf("mckp: job %q item %q has negative priced cost %g", job.Name, it.Label, cost)
		}
		return -cost
	})
	if negative != nil {
		return Selection{}, negative
	}
	if sel.Feasible {
		// True totals, summed in class order (solveDP sums in reverse).
		sel.TotalTime, sel.TotalCost = 0, 0
		for l, j := range sel.Pick {
			sel.TotalTime += job.Classes[l].Items[j].TimeSec
			sel.TotalCost += job.Classes[l].Items[j].Cost
		}
	}
	return sel, nil
}

// capacityPools seeds the estimator's per-label machine free-time
// pools from the capacity profile, pre-loaded with any committed
// free-at times (nil freeAt means every machine free at 0).
func capacityPools(capacity Capacity, freeAt map[string][]int) map[string][]int {
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
	round  int
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

// evaluate fills a candidate's schedule estimate and score fields.
func (c *candidate) evaluate(jobs []BatchJob, capacity Capacity, freeAt map[string][]int) (busy, wait map[string]int) {
	ests, span, busy, wait := batchEstimate(jobs, c.picks, capacity, freeAt)
	c.ests, c.span = ests, span
	c.cost, c.missed = 0, 0
	for i, sel := range c.sels {
		c.cost += sel.TotalCost
		met := jobs[i].DeadlineSec <= 0 || ests[i].FinishSec <= jobs[i].DeadlineSec
		c.ests[i].DeadlineMet = met
		if !met {
			c.missed++
		}
	}
	return busy, wait
}

// batchEstimate predicts the schedule the picks imply on the shared
// fleet with the flow scheduler's own discipline in whole seconds:
// stages are the placement unit, jobs queue FIFO by ready time (ties
// toward the earlier job), and each stage takes the earliest-free
// machine of its label (ties toward the lower machine index). It
// returns the per-job estimates, the makespan, and per-label busy and
// wait totals — the congestion signal the price loop feeds on.
func batchEstimate(jobs []BatchJob, picks [][]int, capacity Capacity, freeAt map[string][]int) (ests []JobEstimate, makespan int, busy, wait map[string]int) {
	type runner struct {
		job   int
		stage int
		ready int
	}
	free := capacityPools(capacity, freeAt)
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
	return ests, makespan, busy, wait
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
// exactly; per-job DP solves within a round fan out across
// st.Workers with results identical for any worker count.
func BatchOptimizeState(jobs []BatchJob, capacity Capacity, st BatchState) (BatchSelection, error) {
	if err := batchValidate(jobs, capacity); err != nil {
		return BatchSelection{}, err
	}

	pool := par.Fixed(st.Workers)
	type solved struct {
		sel Selection
		err error
	}
	solve := func(method string, prices map[string]float64, round int) (*candidate, error) {
		c := &candidate{method: method, prices: prices, round: round,
			picks: make([][]int, len(jobs)), sels: make([]Selection, len(jobs))}
		results := par.Map(pool, len(jobs), func(i int) solved {
			sel, err := pricedSolve(jobs[i], prices)
			return solved{sel, err}
		})
		for i, r := range results {
			if r.err != nil {
				return nil, r.err
			}
			if !r.sel.Feasible {
				return nil, nil // this pricing starves a job; skip the candidate
			}
			c.sels[i] = r.sel
			c.picks[i] = r.sel.Pick
		}
		return c, nil
	}

	// Candidate zero: every job independently optimal, prices all zero.
	// If any job cannot meet its own deadline even alone and uncontended
	// the batch is infeasible.
	base, err := solve("independent", nil, 0)
	if err != nil {
		return BatchSelection{}, err
	}
	if base == nil {
		return BatchSelection{Feasible: false, Jobs: make([]Selection, len(jobs))}, nil
	}
	baseBusy, baseWait := base.evaluate(jobs, capacity, st.FreeAtSec)
	bestCand := base

	// Price loop: shadow prices start at zero (or the caller's warm
	// vector) and chase congestion. The unit price is the batch's
	// average dollar-per-busy-second, so a label whose queue wait equals
	// its busy time roughly doubles in apparent cost — enough to push
	// marginal jobs to their next-best type without drowning the true
	// prices.
	labels := make([]string, 0, len(capacity))
	for label := range capacity {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	var busyTotal int
	for _, label := range labels {
		busyTotal += baseBusy[label]
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
	busy, wait := baseBusy, baseWait
	if len(st.Prices) > 0 && unit > 0 {
		// Warm start: re-solve under the previous event's prices before
		// adjusting, so one round suffices when congestion is unchanged.
		for label, p := range st.Prices {
			prices[label] = p
		}
		warm, err := solve("warm", prices, 0)
		if err != nil {
			return BatchSelection{}, err
		}
		if warm != nil {
			busy, wait = warm.evaluate(jobs, capacity, st.FreeAtSec)
			if warm.better(bestCand) {
				bestCand = warm
			}
		}
	}
	roundsRun := 0
	for round := 1; round <= rounds && unit > 0; round++ {
		congested := false
		next := map[string]float64{}
		for _, label := range labels {
			congestion := 0.0
			if busy[label] > 0 {
				congestion = float64(wait[label]) / float64(busy[label])
			}
			// Damped update: half the old price plus the fresh congestion
			// signal, so prices both rise under sustained queueing and
			// decay once jobs have moved away.
			next[label] = 0.5*prices[label] + unit*congestion
			if next[label] > 1e-12 {
				congested = true
			}
		}
		prices = next
		roundsRun = round
		if !congested {
			break
		}
		cand, err := solve("priced", prices, round)
		if err != nil {
			return BatchSelection{}, err
		}
		if cand == nil {
			break // pricing made some job infeasible; stop escalating
		}
		busy, wait = cand.evaluate(jobs, capacity, st.FreeAtSec)
		if cand.better(bestCand) {
			bestCand = cand
		}
	}

	// Fallback bound: greedy round-robin repair of the best candidate.
	// While predicted misses remain, take the worst-missing job and try
	// every single-stage re-pick, keeping the move that most improves
	// (missed, job finish, cost). Bounded by the total item count so it
	// always terminates.
	repaired := repairMisses(jobs, capacity, st.FreeAtSec, bestCand)
	if repaired != nil && repaired.better(bestCand) {
		bestCand = repaired
	}

	out := BatchSelection{
		Feasible:    true,
		Jobs:        bestCand.sels,
		TotalCost:   bestCand.cost,
		MakespanSec: bestCand.span,
		Estimates:   bestCand.ests,
		Prices:      bestCand.prices,
		Rounds:      roundsRun,
		Method:      bestCand.method,
		FinalPrices: prices,
	}
	if out.Prices == nil {
		out.Prices = map[string]float64{}
	}
	for _, est := range out.Estimates {
		if !est.DeadlineMet {
			out.MissedDeadlines++
		}
	}
	return out, nil
}

// repairMisses is the greedy round-robin re-planner: starting from a
// candidate, repeatedly re-pick one stage of the worst deadline-missing
// job until no move improves the estimate. Returns nil when the start
// already meets every deadline.
func repairMisses(jobs []BatchJob, capacity Capacity, freeAt map[string][]int, start *candidate) *candidate {
	if start.missed == 0 {
		return nil
	}
	cur := &candidate{method: "round-robin", prices: start.prices, round: start.round,
		picks: make([][]int, len(jobs)), sels: make([]Selection, len(jobs))}
	for i := range jobs {
		cur.picks[i] = append([]int(nil), start.picks[i]...)
		cur.sels[i] = start.sels[i]
	}
	cur.evaluate(jobs, capacity, freeAt)

	budget := 0
	for _, job := range jobs {
		for _, cl := range job.Classes {
			budget += len(cl.Items)
		}
	}
	for step := 0; step < budget && cur.missed > 0; step++ {
		// The worst offender: largest finish-past-deadline overrun, ties
		// toward the earlier job.
		worst, overrun := -1, 0
		for i, est := range cur.ests {
			if jobs[i].DeadlineSec <= 0 || est.DeadlineMet {
				continue
			}
			if over := est.FinishSec - jobs[i].DeadlineSec; worst < 0 || over > overrun {
				worst, overrun = i, over
			}
		}
		if worst < 0 {
			break
		}
		var bestMove *candidate
		try := func(picks []int) {
			trial := &candidate{method: "round-robin", prices: cur.prices, round: cur.round,
				picks: make([][]int, len(jobs)), sels: make([]Selection, len(jobs))}
			for i := range jobs {
				trial.picks[i] = append([]int(nil), cur.picks[i]...)
				trial.sels[i] = cur.sels[i]
			}
			trial.picks[worst] = append([]int(nil), picks...)
			trial.sels[worst] = retotal(jobs[worst], trial.picks[worst])
			if trial.sels[worst].TotalTime > effectiveDeadline(jobs[worst]) {
				return // busy time alone already blows the budget
			}
			trial.evaluate(jobs, capacity, freeAt)
			if trial.missed < cur.missed ||
				(trial.missed == cur.missed && trial.ests[worst].FinishSec < cur.ests[worst].FinishSec) {
				if bestMove == nil || trial.better(bestMove) {
					bestMove = trial
				}
			}
		}
		for l := range jobs[worst].Classes {
			for j := range jobs[worst].Classes[l].Items {
				if j == cur.picks[worst][l] {
					continue
				}
				picks := append([]int(nil), cur.picks[worst]...)
				picks[l] = j
				try(picks)
			}
		}
		if bestMove == nil {
			break
		}
		cur = bestMove
	}
	return cur
}

// retotal rebuilds a job's Selection from explicit picks.
func retotal(job BatchJob, picks []int) Selection {
	sel := Selection{Feasible: true, Pick: append([]int(nil), picks...)}
	for l, j := range picks {
		it := job.Classes[l].Items[j]
		sel.TotalTime += it.TimeSec
		sel.TotalCost += it.Cost
	}
	return sel
}

// Export renders every job's selection as labeled picks, in job order.
// Like Selection.Export it refuses infeasible selections and empty
// choice tables.
func (b BatchSelection) Export(jobs []BatchJob) ([][]ExportedPick, error) {
	if !b.Feasible {
		return nil, fmt.Errorf("mckp: infeasible batch selection exports no plans")
	}
	if len(b.Jobs) != len(jobs) {
		return nil, fmt.Errorf("mckp: batch selection holds %d jobs, batch has %d", len(b.Jobs), len(jobs))
	}
	out := make([][]ExportedPick, len(jobs))
	for i, job := range jobs {
		picks, err := b.Jobs[i].Export(job.Classes)
		if err != nil {
			return nil, fmt.Errorf("mckp: job %q: %w", job.Name, err)
		}
		out[i] = picks
	}
	return out, nil
}
