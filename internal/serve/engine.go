package serve

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"edacloud/internal/cache"
	"edacloud/internal/cloud"
	"edacloud/internal/flow"
	"edacloud/internal/mckp"
)

// This file is the serving engine: a single-goroutine simulated-time
// event loop over (arrival, completion, cancel) events. The engine's
// authoritative state is one cloud.Fleet carrying the live lease
// timeline — stages the clock has not yet seen finish plus the planned
// future bookings of every in-flight job — and an archive of the leases
// the fleet settled as the clock passed their end, so an event's work
// follows the live tail, not the trace's length. At each event the
// uncommitted tail is released (Fleet.Snapshot + ReleaseFrom), all
// remaining stages are re-solved jointly (mckp.BatchOptimizeState,
// warm-started), replayed through the placement engine under the
// tenant quota gate (flow.ForecastGated), and the re-plan is adopted
// only if it is strictly better than the incumbent — so the promise
// made at admission (the forecast finish of every admitted job) only
// ever improves. Everything is a pure function of the submission
// sequence, so replays are byte-identical at any worker count.

// warmRounds bounds the warm re-solve's price-adjustment iterations at
// each event (warm starts converge fast). The initial cold solve uses
// the optimizer's default budget.
const warmRounds = 2

// record is one submitted job's full state.
type record struct {
	status JobStatus
	// tpl is the job's (risk-adjusted) template.
	tpl Template
	// emittedStarts/emittedEnds count the progress events already
	// streamed for this job's stages, in stage order.
	emittedStarts, emittedEnds int
}

// Engine is the multi-tenant serving engine. Not safe for concurrent
// use — the HTTP layer serializes access.
type Engine struct {
	cfg       Config
	templates map[string]Template
	tenants   map[string]Tenant
	caps      map[string]float64

	fleet *cloud.Fleet
	// settled archives, per fleet instance, the leases the fleet settled
	// as the clock advanced; Fleet() puts them back in front of the live
	// timeline.
	settled [][]cloud.Lease
	now     float64
	jobs    []*record
	prices  map[string]float64

	// seen maps each artifact chain key an admitted job will compute to
	// the job that introduced it — the serving layer's fleet-wide dedup
	// index across tenants. A stage whose key another job introduced is
	// predicted a cache hit and priced at the probe constant. The set
	// never shrinks (not even on cancel: a hit once promised must stay a
	// hit, or a re-plan could break an admission promise).
	seen map[cache.Key]int

	// Replans counts re-optimizations run; Adopted counts those whose
	// plan replaced the incumbent; Released totals leases released.
	Replans, Adopted, Released int
}

// New builds an engine over the config's fleet, tenants and templates.
// Templates are risk-adjusted here when hazards are configured.
func New(cfg Config) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:       cfg,
		templates: map[string]Template{},
		tenants:   map[string]Tenant{},
		caps:      quotaCaps(cfg.Fleet, cfg.Tenants),
		fleet:     cfg.Fleet,
		settled:   make([][]cloud.Lease, len(cfg.Fleet.Instances)),
		prices:    map[string]float64{},
		seen:      map[cache.Key]int{},
	}
	for _, t := range cfg.Tenants {
		e.tenants[t.Name] = t
	}
	for _, tpl := range cfg.Templates {
		if len(cfg.Hazards) > 0 {
			tpl.Classes = mckp.RiskAdjust(tpl.Classes, cfg.Hazards, 0)
		}
		e.templates[tpl.Name] = tpl
	}
	return e, nil
}

// Now returns the engine's simulated time.
func (e *Engine) Now() float64 { return e.now }

// jobKey is the lease/forecast name of job id; tenantOf inverts it.
func jobKey(id int) string { return "j" + strconv.Itoa(id) }

func (e *Engine) tenantOf(jobName string) string {
	if r := e.jobOf(jobName); r != nil {
		return r.status.Tenant
	}
	return ""
}

// jobOf resolves a lease/forecast name to its job, nil when it names
// none.
func (e *Engine) jobOf(jobName string) *record {
	if len(jobName) < 2 || jobName[0] != 'j' {
		return nil
	}
	id, err := strconv.Atoi(jobName[1:])
	if err != nil || id < 0 || id >= len(e.jobs) {
		return nil
	}
	return e.jobs[id]
}

// chainHits renders one job's predicted cache hits over its template's
// full key chain: a stage hits iff its key is non-zero and a different
// admitted job introduced it first (the introducer computes, everyone
// later probes). Nil when the template carries no chain or nothing
// hits — the cache-blind shape, bit-identical to earlier behavior.
func (e *Engine) chainHits(r *record) []bool {
	if len(r.tpl.Chain) == 0 {
		return nil
	}
	hits := make([]bool, len(r.tpl.Chain))
	any := false
	for l, k := range r.tpl.Chain {
		owner, ok := e.seen[k]
		if k != 0 && ok && owner != r.status.ID {
			hits[l] = true
			any = true
		}
	}
	if !any {
		return nil
	}
	return hits
}

// registerChain records an admitted job as the introducer of every
// chain key no earlier job owns — from here on, later submissions
// sharing the prefix are predicted hits.
func (e *Engine) registerChain(r *record) {
	for _, k := range r.tpl.Chain {
		if k == 0 {
			continue
		}
		if _, ok := e.seen[k]; !ok {
			e.seen[k] = r.status.ID
		}
	}
}

// SubmitRequest describes one arriving job.
type SubmitRequest struct {
	Tenant   string
	Template string
	Name     string
	// ArrivalSec is the simulated arrival time; the engine advances to
	// it (processing completions on the way) before deciding admission.
	// It must not precede the engine's current time.
	ArrivalSec float64
	// DeadlineSec is the job's absolute completion deadline; 0 means
	// none. Admission promises the deadline or rejects the job. Both
	// times must be finite and below 2^53 s.
	DeadlineSec float64
}

// Submit advances to the job's arrival and decides admission: the job
// is admitted iff a re-plan of every in-flight job plus this one meets
// every promised deadline under the tenant quotas. Rejection leaves
// the engine's state untouched. The returned status is a snapshot.
func (e *Engine) Submit(req SubmitRequest) (JobStatus, error) {
	if _, ok := e.tenants[req.Tenant]; !ok {
		return JobStatus{}, fmt.Errorf("serve: unknown tenant %q", req.Tenant)
	}
	tpl, ok := e.templates[req.Template]
	if !ok {
		return JobStatus{}, fmt.Errorf("serve: unknown template %q", req.Template)
	}
	err := checkTime("arrival", req.ArrivalSec)
	if err == nil {
		err = checkTime("deadline", req.DeadlineSec)
	}
	if err != nil {
		return JobStatus{}, fmt.Errorf("serve: job %q: %w", req.Name, err)
	}
	if req.ArrivalSec < e.now {
		return JobStatus{}, fmt.Errorf("serve: job %q arrives at %g, before the engine clock %g",
			req.Name, req.ArrivalSec, e.now)
	}
	if req.DeadlineSec != 0 && req.DeadlineSec <= req.ArrivalSec {
		return JobStatus{}, fmt.Errorf("serve: job %q deadline %g precedes its arrival %g",
			req.Name, req.DeadlineSec, req.ArrivalSec)
	}
	e.AdvanceTo(req.ArrivalSec)

	r := &record{
		status: JobStatus{
			ID: len(e.jobs), Name: req.Name, Tenant: req.Tenant, Template: req.Template,
			ArrivalSec: req.ArrivalSec, DeadlineSec: req.DeadlineSec,
		},
		tpl: tpl,
	}
	e.jobs = append(e.jobs, r)

	// The quick-reject bound must see the same prices the joint solve
	// will: a job whose shared prefix is already cached can attain a
	// deadline its cold runtimes could not.
	quickClasses := mckp.CacheAdjust(tpl.Classes, e.chainHits(r), cache.ProbeTimeSec)
	if deadline := deadlineInt(req.DeadlineSec); deadline > 0 &&
		readyInt(req.ArrivalSec)+mckp.MinTotalTime(quickClasses) > deadline {
		r.status.Status = StatusRejected
		r.status.Reason = "deadline unattainable even uncontended"
		return r.status, nil
	}

	if e.cfg.Independent {
		e.admitIndependent(r)
		return r.status, nil
	}

	cand, err := e.replan(r)
	if err != nil || cand == nil || cand.miss > 0 {
		r.status.Status = StatusRejected
		switch {
		case err != nil:
			r.status.Reason = err.Error()
		case cand == nil:
			r.status.Reason = "no feasible joint plan"
		default:
			r.status.Reason = "admission would break a promised deadline"
		}
		return r.status, nil
	}
	e.adopt(cand)
	r.status.Status = StatusAdmitted
	e.registerChain(r)
	// Only deadlined jobs get a binding promise: a deadline-free job
	// asked for best effort, and pinning its first forecast would make
	// every later arrival rejectable for delaying it.
	if r.status.DeadlineSec > 0 {
		r.status.PromisedSec = r.status.Stages[len(r.status.Stages)-1].EndSec
	}
	return r.status, nil
}

// Status returns a snapshot of one job.
func (e *Engine) Status(id int) (JobStatus, error) {
	if id < 0 || id >= len(e.jobs) {
		return JobStatus{}, fmt.Errorf("serve: no job %d", id)
	}
	return e.jobs[id].status, nil
}

// Jobs returns a snapshot of every job, in submission order.
func (e *Engine) Jobs() []JobStatus {
	out := make([]JobStatus, len(e.jobs))
	for i, r := range e.jobs {
		out[i] = r.status
	}
	return out
}

// Cancel advances to atSec and cancels the job: its future stages are
// released back to the fleet (work already started runs to its stage
// boundary and stays billed) and the remaining jobs re-plan over the
// freed capacity.
func (e *Engine) Cancel(id int, atSec float64) error {
	if id < 0 || id >= len(e.jobs) {
		return fmt.Errorf("serve: no job %d", id)
	}
	if atSec < e.now {
		return fmt.Errorf("serve: cancel at %g precedes the engine clock %g", atSec, e.now)
	}
	e.AdvanceTo(atSec)
	r := e.jobs[id]
	switch r.status.Status {
	case StatusAdmitted:
	case StatusDone:
		return fmt.Errorf("serve: job %d already finished", id)
	default:
		return fmt.Errorf("serve: job %d is %s", id, r.status.Status)
	}
	// Truncate the plan to the committed prefix and settle the bill.
	kept := committedStages(r.status.Stages, e.now)
	r.status.Stages = append([]PlannedStage(nil), r.status.Stages[:kept]...)
	r.status.Status = StatusCanceled
	r.status.CostUSD = stageCost(r.status.Stages)
	if kept > 0 {
		r.status.FinishSec = r.status.Stages[kept-1].EndSec
	} else {
		r.status.FinishSec = e.now
	}
	e.reoptimize(true)
	return nil
}

// AdvanceTo moves simulated time forward to tSec, finalizing every job
// whose plan completes on the way and re-optimizing after each
// completion. Advancing to +Inf drains the engine (the clock stops at
// the last completion).
func (e *Engine) AdvanceTo(tSec float64) {
	for {
		next, id := math.Inf(1), -1
		for i, r := range e.jobs {
			if r.status.Status != StatusAdmitted {
				continue
			}
			if f := r.status.Stages[len(r.status.Stages)-1].EndSec; f < next {
				next, id = f, i
			}
		}
		if id < 0 || next > tSec {
			break
		}
		e.setNow(next)
		r := e.jobs[id]
		r.status.Status = StatusDone
		r.status.FinishSec = next
		r.status.CostUSD = stageCost(r.status.Stages)
		e.emitUpTo(e.now)
		e.reoptimize(false)
	}
	if !math.IsInf(tSec, 1) && tSec > e.now {
		e.setNow(tSec)
	}
	e.emitUpTo(e.now)
}

// setNow moves the clock to t and archives the leases the fleet can
// settle. It settles at min(t, readyInt(t)), not t: a re-plan books
// nothing before readyInt of the clock, which sits a hair below t when
// t is just past a whole second, so no settled lease can overlap a
// booking in the quota gate; and none started at or after t, so no
// release can drop one.
func (e *Engine) setNow(t float64) {
	e.now = t
	for i, ls := range e.fleet.Settle(math.Min(t, float64(readyInt(t)))) {
		e.settled[i] = append(e.settled[i], ls...)
	}
}

// Drain runs the engine to quiescence: every admitted job completes.
func (e *Engine) Drain() { e.AdvanceTo(math.Inf(1)) }

// plan is one candidate engine state produced by replan: the trial
// fleet with the re-booked tail, the per-job re-planned stage tails,
// and the score the adoption rule compares.
type plan struct {
	fleet     *cloud.Fleet
	miss      int
	cost      float64
	sumFinish float64
	// tails maps job id to its re-planned remaining stages; kept counts
	// the committed prefix the tail appends to.
	tails  map[int][]PlannedStage
	kept   map[int]int
	prices map[string]float64
}

// committedStages counts the prefix of stages already started by now —
// the immutable part of a job's plan.
func committedStages(stages []PlannedStage, now float64) int {
	kept := 0
	for _, st := range stages {
		if st.StartSec >= now {
			break
		}
		kept++
	}
	return kept
}

func stageCost(stages []PlannedStage) float64 {
	var c float64
	for _, st := range stages {
		c += st.CostUSD
	}
	return c
}

// maxClockSec bounds every time a client hands the engine: past 2^53 a
// float64 no longer holds every whole second, and well before int
// overflows (about 9.2e18) the knapsack's integral clock stops meaning
// anything.
const maxClockSec = 1 << 53

// checkTime refuses a client-supplied time that is not finite or not
// below maxClockSec. Callers check before the clock moves, so a refused
// request leaves the engine as it was.
func checkTime(what string, t float64) error {
	if math.IsNaN(t) || math.IsInf(t, 0) || t >= maxClockSec {
		return fmt.Errorf("%s %g is not a finite time below 2^53 s", what, t)
	}
	return nil
}

// readyInt and deadlineInt move the serving layer's continuous clock
// into the knapsack's integral seconds: a job can start no earlier
// than the next whole second, and must finish within its deadline's
// whole second.
func readyInt(t float64) int           { return int(math.Ceil(t - 1e-9)) }
func deadlineInt(deadline float64) int { return int(math.Floor(deadline + 1e-9)) }

// replan builds the candidate state for the current event: release the
// uncommitted tail, re-solve every remaining stage jointly (the extra
// job, when non-nil, rides along as the arrival under admission test),
// and replay the picks through the gated placement engine. A nil plan
// with nil error means the joint solve was infeasible.
func (e *Engine) replan(extra *record) (*plan, error) {
	e.Replans++
	snap := e.fleet.Snapshot()
	e.Released += snap.ReleaseFrom(e.now)

	type entry struct {
		id    int
		r     *record
		kept  int
		ready int
		eff   float64 // binding deadline: the admission promise, or the user deadline
	}
	var active []entry
	p := &plan{fleet: snap, tails: map[int][]PlannedStage{}, kept: map[int]int{}}
	consider := e.jobs
	for i, r := range consider {
		if r.status.Status != StatusAdmitted && !(extra != nil && r == extra) {
			continue
		}
		kept := committedStages(r.status.Stages, e.now)
		if r != extra && kept == len(r.status.Stages) {
			// Fully committed: its finish is fixed; it only contributes to
			// the score.
			p.sumFinish += r.status.Stages[kept-1].EndSec
			continue
		}
		ready := e.now
		if kept > 0 {
			if end := r.status.Stages[kept-1].EndSec; end > ready {
				ready = end
			}
		}
		if r.status.ArrivalSec > ready {
			ready = r.status.ArrivalSec
		}
		// The binding deadline in a re-plan is the promise made at
		// admission, not the (possibly looser or absent) user deadline:
		// re-plans may move an admitted job earlier but never past what
		// it was promised. The arriving job under admission test has no
		// promise yet, so its own deadline binds.
		eff := r.status.DeadlineSec
		if r.status.Status == StatusAdmitted && r.status.PromisedSec > 0 {
			eff = r.status.PromisedSec
		}
		active = append(active, entry{id: i, r: r, kept: kept, ready: readyInt(ready), eff: eff})
	}
	if len(active) == 0 {
		p.cost = snap.TotalCostUSD()
		p.prices = e.prices
		return p, nil
	}

	capacity := mckp.Capacity{}
	freeAt := map[string][]int{}
	for _, inst := range snap.Instances {
		label := inst.Type.Name
		capacity[label]++
		freeAt[label] = append(freeAt[label], readyInt(inst.FreeAtSec))
	}
	bjobs := make([]mckp.BatchJob, len(active))
	tailHits := make([][]bool, len(active))
	for n, a := range active {
		deadline := deadlineInt(a.eff)
		classes := a.r.tpl.Classes[a.kept:]
		if hits := e.chainHits(a.r); hits != nil {
			tailHits[n] = hits[a.kept:]
			classes = mckp.CacheAdjust(classes, tailHits[n], cache.ProbeTimeSec)
		}
		if deadline > 0 && a.ready+mckp.MinTotalTime(classes) > deadline {
			// Doomed under any picks: solve it deadline-free so the batch
			// stays feasible; the forecast below will count the miss and the
			// adoption rule (or admission) will refuse the plan.
			deadline = 0
		}
		bjobs[n] = mckp.BatchJob{
			Name:        jobKey(a.id),
			Classes:     classes,
			DeadlineSec: deadline,
			ReadySec:    a.ready,
		}
	}
	rounds := warmRounds
	if len(e.prices) == 0 {
		rounds = 0 // first solve is cold: use the optimizer's full budget
	}
	sel, err := mckp.BatchOptimizeState(bjobs, capacity, mckp.BatchState{
		FreeAtSec: freeAt,
		Prices:    e.prices,
		Rounds:    rounds,
		Workers:   e.cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	if !sel.Feasible {
		return nil, nil
	}

	fjobs := make([]flow.ForecastJob, len(active))
	for n, a := range active {
		fj := flow.ForecastJob{
			Name:        jobKey(a.id),
			DeadlineSec: a.eff,
			ReadySec:    float64(a.ready),
		}
		for l, pick := range sel.Jobs[n].Pick {
			it := bjobs[n].Classes[l].Items[pick]
			typ, ok := snap.TypeByName(it.Label)
			if !ok {
				return nil, fmt.Errorf("serve: plan names instance type %q absent from the fleet", it.Label)
			}
			fj.Stages = append(fj.Stages, flow.ForecastStage{
				Kind:    a.r.tpl.Kinds[a.kept+l],
				Type:    typ,
				Seconds: float64(it.TimeSec),
				Cached:  l < len(tailHits[n]) && tailHits[n][l],
			})
		}
		fjobs[n] = fj
	}
	gate := newQuotaGate(snap, e.caps, e.tenantOf)
	sched, err := flow.ForecastGated(snap, fjobs, gate)
	if err != nil {
		return nil, err
	}
	for n, a := range active {
		res := sched.Jobs[n]
		if a.eff > 0 && res.FinishSec > a.eff+1e-9 {
			p.miss++
		}
		p.sumFinish += res.FinishSec
		tail := make([]PlannedStage, len(res.Stages))
		for s, st := range res.Stages {
			tail[s] = PlannedStage{
				Kind: st.Kind, Type: st.Type.Name,
				StartSec: st.StartSec, EndSec: st.StartSec + st.Seconds,
				CostUSD: st.CostUSD, Cached: st.Cached,
			}
		}
		p.tails[a.id] = tail
		p.kept[a.id] = a.kept
	}
	p.cost = snap.TotalCostUSD()
	p.prices = sel.FinalPrices
	return p, nil
}

// adopt installs a candidate plan as the engine state.
func (e *Engine) adopt(p *plan) {
	e.Adopted++
	e.fleet = p.fleet
	if p.prices != nil {
		e.prices = p.prices
	}
	for id, tail := range p.tails {
		r := e.jobs[id]
		r.status.Stages = append(r.status.Stages[:p.kept[id]:p.kept[id]], tail...)
		r.status.CostUSD = stageCost(r.status.Stages)
	}
}

// reoptimize runs the completion/cancel-event re-plan. On a cancel the
// incumbent fleet still carries the canceled job's future leases, so
// some new state must be adopted: the candidate when it keeps every
// promise, else the incumbent with the canceled jobs' future leases
// surgically dropped. On a completion the candidate is adopted only
// when strictly better than the incumbent — fewer misses never arise
// (the incumbent has none), so better means cheaper, then
// earlier-finishing at equal cost.
func (e *Engine) reoptimize(cancel bool) {
	if e.cfg.Independent {
		// The baseline never re-plans; a cancel still frees the canceled
		// job's future leases.
		if cancel {
			e.dropCanceledLeases()
		}
		return
	}
	cand, err := e.replan(nil)
	ok := err == nil && cand != nil && cand.miss == 0
	if !ok {
		if cancel {
			e.dropCanceledLeases()
		}
		return
	}
	if cancel {
		e.adopt(cand)
		return
	}
	curCost := e.fleet.TotalCostUSD()
	curSum := 0.0
	for _, r := range e.jobs {
		if r.status.Status == StatusAdmitted {
			curSum += r.status.Stages[len(r.status.Stages)-1].EndSec
		}
	}
	if cand.cost < curCost-1e-9 || (cand.cost < curCost+1e-9 && cand.sumFinish < curSum-1e-9) {
		e.adopt(cand)
	}
}

// dropCanceledLeases releases canceled jobs' not-yet-started leases
// from the live fleet in place, leaving every other booking untouched
// — the fallback when a post-cancel re-plan would break a promise.
func (e *Engine) dropCanceledLeases() {
	e.Released += e.fleet.ReleaseWhere(e.now, func(l cloud.Lease) bool {
		r := e.jobOf(l.Job)
		return r != nil && r.status.Status == StatusCanceled
	})
}

// admitIndependent is the per-arrival baseline: the job's own min-cost
// DP (congestion ignored), booked through the gated placement engine
// after every existing reservation, admitted iff the resulting finish
// keeps the deadline. Nothing is ever re-planned afterwards.
func (e *Engine) admitIndependent(r *record) {
	ready := readyInt(r.status.ArrivalSec)
	deadline := deadlineInt(r.status.DeadlineSec)
	budget := deadline - ready
	if deadline <= 0 {
		budget = mckp.MaxTotalTime(r.tpl.Classes)
	}
	sel, err := mckp.SolveMinCost(r.tpl.Classes, budget)
	if err != nil || !sel.Feasible {
		r.status.Status = StatusRejected
		r.status.Reason = "no feasible solo plan"
		return
	}
	fj := flow.ForecastJob{
		Name:        jobKey(r.status.ID),
		DeadlineSec: r.status.DeadlineSec,
		ReadySec:    float64(ready),
	}
	for l, pick := range sel.Pick {
		it := r.tpl.Classes[l].Items[pick]
		typ, _ := e.fleet.TypeByName(it.Label)
		fj.Stages = append(fj.Stages, flow.ForecastStage{
			Kind: r.tpl.Kinds[l], Type: typ, Seconds: float64(it.TimeSec),
		})
	}
	snap := e.fleet.Snapshot()
	gate := newQuotaGate(snap, e.caps, e.tenantOf)
	sched, err := flow.ForecastGated(snap, []flow.ForecastJob{fj}, gate)
	if err != nil {
		r.status.Status = StatusRejected
		r.status.Reason = err.Error()
		return
	}
	res := sched.Jobs[0]
	if d := r.status.DeadlineSec; d > 0 && res.FinishSec > d+1e-9 {
		r.status.Status = StatusRejected
		r.status.Reason = "deadline unattainable behind existing reservations"
		return
	}
	e.fleet = snap
	r.status.Status = StatusAdmitted
	for _, st := range res.Stages {
		r.status.Stages = append(r.status.Stages, PlannedStage{
			Kind: st.Kind, Type: st.Type.Name,
			StartSec: st.StartSec, EndSec: st.StartSec + st.Seconds,
			CostUSD: st.CostUSD,
		})
	}
	r.status.CostUSD = stageCost(r.status.Stages)
	if r.status.DeadlineSec > 0 {
		r.status.PromisedSec = res.FinishSec
	}
}

// emitUpTo streams the progress events that became fact by simulated
// time t: a StageStarted for every stage begun strictly before t, a
// StageFinished for every stage ended at or before t, in (time, kind
// of boundary, job id) order. Stages that have not started yet remain
// re-plannable, so nothing is emitted for them.
func (e *Engine) emitUpTo(t float64) {
	if e.cfg.OnEvent == nil {
		return
	}
	type pending struct {
		at    float64
		end   bool
		jobID int
		idx   int
	}
	var evs []pending
	for i, r := range e.jobs {
		switch r.status.Status {
		case StatusAdmitted, StatusDone, StatusCanceled:
		default:
			continue
		}
		stages := r.status.Stages
		for idx := r.emittedStarts; idx < len(stages) && stages[idx].StartSec < t; idx++ {
			evs = append(evs, pending{at: stages[idx].StartSec, jobID: i, idx: idx})
		}
		for idx := r.emittedEnds; idx < len(stages) && stages[idx].EndSec <= t; idx++ {
			evs = append(evs, pending{at: stages[idx].EndSec, end: true, jobID: i, idx: idx})
		}
	}
	sort.SliceStable(evs, func(a, b int) bool {
		if evs[a].at != evs[b].at {
			return evs[a].at < evs[b].at
		}
		if evs[a].end != evs[b].end {
			return evs[a].end // finishes before starts at the same instant
		}
		return evs[a].jobID < evs[b].jobID
	})
	for _, ev := range evs {
		r := e.jobs[ev.jobID]
		st := r.status.Stages[ev.idx]
		fev := flow.Event{
			Type:  flow.StageStarted,
			Stage: st.Kind.String(),
			Kind:  st.Kind,
			Index: ev.idx,
			Total: len(r.tpl.Kinds),
		}
		if ev.end {
			fev.Type = flow.StageFinished
			r.emittedEnds = ev.idx + 1
		} else {
			r.emittedStarts = ev.idx + 1
		}
		e.cfg.OnEvent(Event{
			AtSec: ev.at, JobID: ev.jobID, Job: r.status.Name, Tenant: r.status.Tenant, Flow: fev,
		})
	}
}

// TenantStats summarizes every tenant's ledger, in config order.
func (e *Engine) TenantStats() []TenantStat {
	out := make([]TenantStat, len(e.cfg.Tenants))
	idx := map[string]int{}
	var weightSum float64
	for _, t := range e.cfg.Tenants {
		weightSum += t.Weight
	}
	for i, t := range e.cfg.Tenants {
		idx[t.Name] = i
		out[i] = TenantStat{Name: t.Name, Weight: t.Weight, QuotaUSDH: e.caps[t.Name] * 3600}
	}
	for _, r := range e.jobs {
		s := &out[idx[r.status.Tenant]]
		s.Submitted++
		switch r.status.Status {
		case StatusRejected:
			s.Rejected++
			continue
		case StatusDone:
			s.Done++
		case StatusCanceled:
			s.Canceled++
		}
		s.Admitted++
		s.CostUSD += r.status.CostUSD
	}
	return out
}
