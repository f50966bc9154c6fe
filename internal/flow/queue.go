package flow

import (
	"fmt"

	"edacloud/internal/cache"
	"edacloud/internal/cloud"
)

// This file is the scheduler's placement engine: a deterministic
// event-driven simulation in which jobs queue for fleet instances and
// stages — not whole jobs — are the unit of placement. It runs
// serially after the parallel pipeline phase; every decision is a pure
// function of (fleet state, job order, stage runtimes, revocation
// timelines), so the resulting schedule is bit-identical at any real
// worker count.
//
// Spot revocations enter here as a third placement outcome: a booked
// stage whose lease the fleet truncated loses only the work since its
// last stage boundary (its checkpoint), re-enters the FIFO queue at
// RevokedAt+backoff, and re-runs under the job's RetryPolicy —
// possibly escalated to the spot type's on-demand counterpart.

// runner tracks one job's progress through the simulation.
type runner struct {
	p   *preparedJob
	job *Job
	// stage indexes the next entry of p.kinds to place.
	stage int
	// ready is the simulated time the next stage may start.
	ready float64
	// held is the fleet instance a non-re-instancing job keeps across
	// stages; -1 before the first acquisition (and after a revocation,
	// which takes the machine away).
	held int
	// pinned forces the first acquisition onto one instance (the
	// dedicated compatibility fleet); -1 means queue normally.
	pinned int
	// reinstance is the job's placement mode, the policy's ReInstance:
	// true releases the machine between stages.
	reinstance bool
	// leases collects (instance, lease) refs for exact final billing.
	leases [][2]int
	// attempts and revs count per-stage-index runs and revocations —
	// the retry policy's attempt cap and escalation trigger.
	attempts []int
	revs     []int
	// override re-targets stages to the instance types replanRequest
	// jointly re-picked when queue wait ate the job's slack; nil until
	// the first re-plan. Overrides take precedence over the prepared
	// requests but deliberately do not replace them, so stageSeconds
	// still prices an overridden stage off the job's choice table.
	override map[JobKind]cloud.InstanceType

	started  bool
	startSec float64
	waitSec  float64
}

// placement is the outcome of one placeNext call.
type placement int

const (
	// stagePlaced: the stage ran to completion; r.stage advanced.
	stagePlaced placement = iota
	// stageRevoked: the stage was cut by a revocation; the runner is
	// re-queued at its backoff-adjusted ready time, stage unchanged.
	stageRevoked
	// stageDeferred: an admission gate pushed the stage's start past
	// its grant; the runner re-enters the queue at the deferred ready
	// time, stage unchanged, nothing booked.
	stageDeferred
	// stageFailed: the job failed (acquisition error or attempt cap).
	stageFailed
)

// Gate is an admission hook into the placement simulation: before a
// stage books the instance the fleet granted it, the gate may defer it
// — a multi-tenant quota on concurrent fleet spend, for example. Admit
// sees the grant (job, stage, instance type, start, duration) and
// either admits it (ok true; the booking follows immediately, so a
// stateful gate should record the interval) or defers the stage until
// deferUntil, when it re-enters the FIFO queue and asks again. A
// deferUntil at or before the stage's current ready time is ignored
// and the stage books anyway — the progress guarantee that makes a
// gated simulation always terminate. Gates must be pure functions of
// the serial simulation state to preserve bit-determinism.
type Gate interface {
	Admit(job *Job, k JobKind, it cloud.InstanceType, startSec, durSec float64) (deferUntil float64, ok bool)
}

// simulate places every prepared job's stages onto the fleet and fills
// in the placement fields of each preparedJob's result. A nil gate
// admits everything.
func simulate(fleet *cloud.Fleet, policy Policy, jobs []Job, prepared []*preparedJob, pinned bool, gate Gate) {
	var queue []*runner
	for i := range prepared {
		if prepared[i].res.Err != nil {
			continue
		}
		if len(prepared[i].kinds) == 0 {
			finalize(&prepared[i].res, &jobs[i], fleet, nil)
			continue
		}
		n := len(prepared[i].kinds)
		r := &runner{
			p: prepared[i], job: &jobs[i], held: -1, pinned: -1,
			ready:      prepared[i].readySec,
			reinstance: policy.ReInstance(),
			attempts:   make([]int, n),
			revs:       make([]int, n),
		}
		if pinned {
			r.pinned = i
		}
		queue = append(queue, r)
	}

	for len(queue) > 0 {
		// The next event is the earliest-ready job; ties break toward
		// the earlier job index (queue preserves job order and the scan
		// keeps the first minimum).
		best := 0
		for i := 1; i < len(queue); i++ {
			if queue[i].ready < queue[best].ready {
				best = i
			}
		}
		r := queue[best]
		out := placeNext(fleet, r, gate)
		// A job holding its machine runs its whole flow back to back:
		// nothing can use the held instance in between, so placing the
		// remaining stages now keeps the fleet timeline conflict-free.
		// A revocation breaks the streak — the machine is gone and the
		// job re-queues FIFO like everyone else.
		for out == stagePlaced && !r.reinstance && r.stage < len(r.p.kinds) {
			out = placeNext(fleet, r, gate)
		}
		if out == stageFailed || r.stage == len(r.p.kinds) {
			finalize(&r.p.res, r.job, fleet, r)
			queue = append(queue[:best], queue[best+1:]...)
		}
	}
}

// placeNext places runner r's next stage on the fleet. A held instance
// (non-re-instancing policy) extends its existing lease; a
// re-instancing job queues afresh for every stage. A lease the fleet
// truncated at a revocation produces stageRevoked: the attempt's
// survived time is recorded as lost work and the stage re-enters the
// queue under the job's RetryPolicy.
func placeNext(fleet *cloud.Fleet, r *runner, gate Gate) placement {
	k := r.p.kinds[r.stage]
	// A cached stage on a job not holding a machine books no lease at
	// all: the probe occupies no instance, passes no admission gate
	// (it spends nothing) and cannot be revoked. A job that IS holding
	// its machine falls through to the normal lease-extension path with
	// the probe-constant duration, keeping the held timeline contiguous.
	if r.p.cached[k] && r.held < 0 {
		start := r.ready
		r.attempts[r.stage]++
		if !r.started {
			r.started = true
			r.startSec = start
		}
		res := &r.p.res
		res.Stages = append(res.Stages, StageResult{
			Kind:     k,
			Seconds:  cache.ProbeSeconds,
			Cached:   true,
			StartSec: start,
			Attempt:  r.attempts[r.stage],
		})
		res.Seconds += cache.ProbeSeconds
		r.ready = start + cache.ProbeSeconds
		r.stage++
		return stagePlaced
	}
	req := r.p.requests[k]
	if o, ok := r.override[k]; ok {
		req = o
	}
	retry := r.job.Retry.withDefaults()

	// Escalation: after enough revocations of this stage, request the
	// spot type's on-demand counterpart — if the fleet has one.
	if retry.EscalateAfter > 0 && r.revs[r.stage] >= retry.EscalateAfter &&
		req.Revocable && req.OnDemand != "" {
		if od, ok := fleet.TypeByName(req.OnDemand); ok {
			req = od
		}
	}

	var instIdx int
	var start float64
	switch {
	case r.held >= 0:
		instIdx, start = r.held, r.ready
	case r.pinned >= 0:
		instIdx = r.pinned
		start = fleet.Instances[instIdx].FreeAtSec
		if start < r.ready {
			start = r.ready
		}
	default:
		if r.reinstance && req.Name != "" {
			req = replanRequest(fleet, r, k, req)
		}
		var err error
		instIdx, start, err = fleet.Acquire(req.Name, r.ready)
		if err != nil {
			r.p.res.Err = err
			return stageFailed
		}
	}
	inst := fleet.Instances[instIdx]

	dur := r.p.stageSeconds(r.job, k, inst.Type)
	if gate != nil && r.held < 0 {
		if deferUntil, ok := gate.Admit(r.job, k, inst.Type, start, dur); !ok && deferUntil > r.ready {
			r.ready = deferUntil
			return stageDeferred
		}
	}
	r.attempts[r.stage]++
	var cost float64
	var li int
	if r.held >= 0 {
		cost = fleet.Extend(instIdx, k.String(), dur)
		li = len(inst.Leases) - 1
	} else {
		li = fleet.Book(instIdx, r.job.Name, k.String(), start, dur)
		r.leases = append(r.leases, [2]int{instIdx, li})
		cost = fleet.Lease(instIdx, li).CostUSD
		if !r.reinstance {
			r.held = instIdx
		}
	}

	if !r.started {
		r.started = true
		r.startSec = start
	}
	res := &r.p.res
	lease := fleet.Lease(instIdx, li)
	if lease.Revoked {
		return revokeStage(res, r, retry, inst, k, start, cost, lease.RevokedAt)
	}

	res.Stages = append(res.Stages, StageResult{
		Kind:     k,
		Instance: inst.ID,
		Type:     inst.Type,
		StartSec: start,
		WaitSec:  start - r.ready,
		Seconds:  dur,
		CostUSD:  cost,
		Attempt:  r.attempts[r.stage],
		Cached:   r.p.cached[k],
	})
	res.Seconds += dur
	r.waitSec += start - r.ready
	r.ready = start + dur
	r.stage++
	return stagePlaced
}

// revokeStage records a truncated attempt and re-queues (or fails) the
// runner. The survived interval [start, revokedAt) is real billed busy
// time that must be redone, so it counts into both the job's busy
// Seconds and its lost-work RetriedSec.
func revokeStage(res *JobResult, r *runner, retry RetryPolicy, inst *cloud.FleetInstance,
	k JobKind, start, cost, revokedAt float64) placement {
	survived := revokedAt - start
	res.Stages = append(res.Stages, StageResult{
		Kind:      k,
		Instance:  inst.ID,
		Type:      inst.Type,
		StartSec:  start,
		WaitSec:   start - r.ready,
		Seconds:   survived,
		CostUSD:   cost,
		Attempt:   r.attempts[r.stage],
		Revoked:   true,
		RevokedAt: revokedAt,
	})
	res.Seconds += survived
	r.waitSec += start - r.ready
	res.Revocations++
	res.RetriedSec += survived
	r.revs[r.stage]++
	r.held = -1 // the machine is gone

	if r.stage > 0 {
		// Stage-boundary checkpoint: only the truncated attempt is
		// lost; completed stages stand.
		res.RecoveredFromCheckpoint++
	}
	if r.attempts[r.stage] >= retry.MaxAttempts {
		res.Err = fmt.Errorf("flow: stage %s of job %q revoked on attempt %d/%d",
			k, r.job.Name, r.attempts[r.stage], retry.MaxAttempts)
		return stageFailed
	}
	r.ready = revokedAt + retry.BackoffSec
	return stageRevoked
}

// replanOption is one candidate (type, projected runtime, table cost)
// for one stage of a joint re-plan.
type replanOption struct {
	t    cloud.InstanceType
	sec  float64
	cost float64
}

// replanOptions lists stage kk's candidates for the joint re-plan:
// the job's choice-table entries the fleet can actually supply, priced
// and timed the way the placement itself will be (stageSeconds, table
// cost). A stage with no usable table entries is fixed to its
// current request at zero marginal cost — constant across combos, so
// it never skews the comparison.
func replanOptions(fleet *cloud.Fleet, r *runner, kk JobKind, req cloud.InstanceType) []replanOption {
	var opts []replanOption
	for _, opt := range r.job.Choices[kk] {
		if _, ok := fleet.TypeByName(opt.Type.Name); !ok {
			continue
		}
		opts = append(opts, replanOption{
			t:    opt.Type,
			sec:  r.p.stageSeconds(r.job, kk, opt.Type),
			cost: opt.CostUSD,
		})
	}
	if len(opts) == 0 {
		opts = append(opts, replanOption{t: req, sec: r.p.stageSeconds(r.job, kk, req)})
	}
	return opts
}

// replanRequest is the placement-time correction of a plan-executing
// job that carries a choice table and a deadline (placeNext calls it
// for every re-instancing stage queueing for a named type; a job
// without either executes its plan verbatim, which is what keeps
// Forecast == execution). The planned pick stands while its projected
// finish still meets the deadline; once queue wait has eaten the slack
// the current AND remaining stages are re-planned jointly — the choice
// tables' cross product is enumerated for the cheapest combination
// that projects to meet the deadline (or, failing that, the
// earliest-finishing one). The re-picked remaining stages are recorded
// as overrides the later placements honor (and may re-plan again if
// slack evaporates further). Projections probe Acquire for the current
// stage only (no booking) and assume the remaining stages run
// back-to-back, so the decision stays a pure function of the serial
// simulation state. A caller-supplied table too wide to enumerate
// keeps the plan.
func replanRequest(fleet *cloud.Fleet, r *runner, k JobKind, planned cloud.InstanceType) cloud.InstanceType {
	job := r.job
	if job.DeadlineSec <= 0 || len(job.Choices[k]) == 0 {
		return planned
	}
	rest := r.p.kinds[r.stage+1:]
	curReq := func(kk JobKind) cloud.InstanceType {
		if o, ok := r.override[kk]; ok {
			return o
		}
		return r.p.requests[kk]
	}

	// The current picks stand while they still project to meet the
	// deadline — the knapsack already made them cost-optimal.
	if _, start, err := fleet.Acquire(planned.Name, r.ready); err == nil {
		finish := start + r.p.stageSeconds(job, k, planned)
		for _, kk := range rest {
			finish += r.p.stageSeconds(job, kk, curReq(kk))
		}
		if finish <= job.DeadlineSec {
			return planned
		}
	}

	// Joint enumeration. The current stage's start is probed per type;
	// remaining stages contribute runtime and table cost only.
	type curOption struct {
		replanOption
		start float64
	}
	var heads []curOption
	for _, opt := range replanOptions(fleet, r, k, planned) {
		_, start, err := fleet.Acquire(opt.t.Name, r.ready)
		if err != nil {
			continue
		}
		heads = append(heads, curOption{opt, start})
	}
	if len(heads) == 0 {
		return planned
	}
	tails := make([][]replanOption, len(rest))
	combos := len(heads)
	for i, kk := range rest {
		tails[i] = replanOptions(fleet, r, kk, curReq(kk))
		combos *= len(tails[i])
	}
	if combos > 1<<16 {
		return planned
	}

	// Scan the cross product in table order; strict improvement keeps
	// the earliest (smallest-instance) combination on ties.
	idx := make([]int, len(tails))
	bestMeets := false
	var bestCost, bestFinish float64
	var bestHead cloud.InstanceType
	var bestTail []replanOption
	for h := range heads {
		for {
			finish := heads[h].start + heads[h].sec
			cost := heads[h].cost
			for i := range tails {
				finish += tails[i][idx[i]].sec
				cost += tails[i][idx[i]].cost
			}
			meets := finish <= job.DeadlineSec
			better := false
			switch {
			case bestHead.Name == "":
				better = true
			case meets && !bestMeets:
				better = true
			case meets == bestMeets && meets && cost < bestCost:
				better = true
			case meets == bestMeets && !meets && finish < bestFinish:
				better = true
			}
			if better {
				bestMeets, bestCost, bestFinish = meets, cost, finish
				bestHead = heads[h].t
				bestTail = make([]replanOption, len(tails))
				for i := range tails {
					bestTail[i] = tails[i][idx[i]]
				}
			}
			// Advance the mixed-radix tail counter.
			i := len(idx) - 1
			for ; i >= 0; i-- {
				idx[i]++
				if idx[i] < len(tails[i]) {
					break
				}
				idx[i] = 0
			}
			if i < 0 {
				break
			}
		}
	}
	if r.override == nil {
		r.override = map[JobKind]cloud.InstanceType{}
	}
	for i, kk := range rest {
		r.override[kk] = bestTail[i].t
	}
	return bestHead
}

// finalize fills a job result's schedule aggregates once its last
// stage is placed (or it never entered the queue). Costs re-sum the
// final lease bills rather than folding marginal extensions, so a
// held-and-extended lease bills exactly its total duration.
func finalize(res *JobResult, job *Job, fleet *cloud.Fleet, r *runner) {
	if r != nil {
		res.StartSec = r.startSec
		res.FinishSec = r.ready
		res.WaitSec = r.waitSec
		res.CostUSD = 0
		for _, ref := range r.leases {
			res.CostUSD += fleet.Lease(ref[0], ref[1]).CostUSD
		}
	}
	if res.Err != nil {
		res.DeadlineMet = false
		return
	}
	res.DeadlineMet = job.DeadlineSec <= 0 || res.FinishSec <= job.DeadlineSec
}
