package flow

import (
	"context"
	"fmt"

	"edacloud/internal/aig"
	"edacloud/internal/cache"
	"edacloud/internal/cloud"
	"edacloud/internal/par"
	"edacloud/internal/perf"
	"edacloud/internal/techlib"
)

// Job is one flow to run against the scheduler's fleet — the unit of
// the paper's deployment problem. Under the default SingleInstance
// policy the job rents its Instance for the whole flow; under a
// stage-level policy each stage queues for its own machine. The zero
// Instance is a free single-vCPU machine, useful in tests.
type Job struct {
	// Name labels the job in results and fleet leases.
	Name string
	// Design is the input AIG; the scheduler clones it per run, so one
	// graph may back many jobs.
	Design *aig.Graph
	// Lib is the technology library.
	Lib *techlib.Library
	// Options shape the job's pipeline. The scheduler prepends the
	// shared context and an instance-sized probe factory, so options
	// here override both (e.g. WithStages for a partial flow).
	Options []Option
	// Instance is the VM the job rents under the SingleInstance policy
	// (and the probe-sizing fallback when a policy requests "any"
	// machine): its vCPU count and AVX capability drive the simulated
	// runtime, its price the bill.
	Instance cloud.InstanceType
	// Plan maps stages to instance types for the PlanPolicy — the
	// executable form of a deployment optimizer plan.
	Plan StagePlan
	// Choices is the optimizer's per-stage choice table in executable
	// form: the candidate instance types with their predicted runtimes.
	// Together with DeadlineSec it is what lets PlanPolicy re-plan the
	// job's remaining stages once queue wait has eaten its slack; under
	// any policy the placement engine reads it for the runtime of a
	// stage placed on a type other than the one its probe was sized for.
	Choices StageChoices
	// DeadlineSec is the job's completion deadline in simulated
	// seconds, measured against FinishSec (queueing included); 0 means
	// none.
	DeadlineSec float64
	// Retry governs the job's reaction to spot revocations (backoff,
	// per-stage attempt cap, escalation to on-demand). The zero value
	// applies defaults and never engages without a revocation model on
	// the fleet.
	Retry RetryPolicy
	// WorkScale extrapolates simulated runtime to full design size;
	// 0 means 1 (no extrapolation).
	WorkScale float64
}

// StageResult is one stage's placement in the simulated schedule.
type StageResult struct {
	Kind JobKind
	// Instance is the fleet instance ID the stage ran on, Type its
	// instance type.
	Instance string
	Type     cloud.InstanceType
	// StartSec is when the stage began; WaitSec is how long it queued
	// for its machine beyond its ready time.
	StartSec float64
	WaitSec  float64
	// Seconds is the stage's simulated runtime on its instance.
	Seconds float64
	// CostUSD is the stage's lease bill; for a job holding one machine
	// across stages it is the marginal bill of extending the lease.
	CostUSD float64
	// Attempt is the 1-based run count of this stage kind within the
	// job: 1 for a first run, higher for retries after revocations.
	Attempt int
	// Cached marks a stage served from the artifact cache: its Seconds
	// are the cache-probe constant and — unless the job was holding a
	// machine across stages — it booked no lease and cost nothing.
	Cached bool
	// Revoked marks an attempt cut short by a spot revocation at
	// RevokedAt; Seconds then holds only the survived (lost) work and
	// the stage re-enters the queue from its last checkpoint.
	Revoked   bool
	RevokedAt float64
}

// JobResult is one job's outcome.
type JobResult struct {
	Name     string
	Instance cloud.InstanceType
	// Run holds the flow's artifacts; on error it carries whatever the
	// completed stages produced.
	Run *RunContext
	Err error
	// Stages records the per-stage placements in execution order.
	Stages []StageResult
	// Seconds is the busy machine time: the sum of the stage runtimes
	// on their instances. Bills can exceed it under a minimum billing
	// granularity (cloud.InstanceType.MinBillSec).
	Seconds float64
	// StartSec and FinishSec bound the job in simulated batch time;
	// WaitSec totals the time spent queueing for machines, so
	// FinishSec-StartSec-Seconds is the job's internal wait.
	StartSec, FinishSec, WaitSec float64
	// CostUSD sums the job's lease bills.
	CostUSD float64
	// DeadlineMet reports whether the job finished (FinishSec) within
	// its deadline (always false on error; true when no deadline was
	// set).
	DeadlineMet bool
	// Revocations counts the job's stage attempts cut by spot
	// reclamations; RetriedSec totals the work those attempts lost
	// (billed busy time that had to be redone).
	Revocations int
	RetriedSec  float64
	// RecoveredFromCheckpoint counts revocations the job survived by
	// resuming from a completed-stage boundary instead of from scratch.
	RecoveredFromCheckpoint int
}

// Schedule aggregates a batch of jobs. All aggregates fold in job
// order, so they are identical for any scheduler worker count.
type Schedule struct {
	Jobs []JobResult
	// Policy names the placement policy the schedule ran under.
	Policy string
	// Fleet is the instance pool the schedule ran on — the internally
	// built one-instance-per-job pool when Scheduler.Fleet was nil —
	// with its lease timelines and cost ledger filled in.
	Fleet *cloud.Fleet
	// TotalCostUSD is the batch bill across all instances.
	TotalCostUSD float64
	// TotalCPUSeconds sums simulated busy runtime over instances; the
	// bill follows it except where a minimum billing granularity floors
	// short leases.
	TotalCPUSeconds float64
	// MakespanSec is the latest job finish time — the batch completion
	// time.
	MakespanSec float64
	// TotalWaitSec sums the jobs' queueing time — zero on an unbounded
	// (dedicated) fleet, the contention signal on a bounded one.
	TotalWaitSec float64
	// UtilizationPct is the fleet's busy share over the makespan.
	UtilizationPct float64
	// DeadlinesMissed counts jobs that finished past their deadline.
	DeadlinesMissed int
	// Failed counts jobs that returned an error.
	Failed int
	// Revocations and RetriedSec aggregate the jobs' spot-reclamation
	// counts and lost work; both zero on fleets without a revocation
	// model.
	Revocations int
	RetriedSec  float64
	// CacheHits counts the stages served from the artifact cache.
	CacheHits int
}

// Scheduler runs flow jobs over a bounded fleet of simulated cloud
// instances — the multi-job batch deployment the paper optimizes for.
// The expensive pipeline runs fan out across the real host's cores via
// internal/par; instance placement happens afterwards in a serial
// event-driven simulation over the fleet, so simulated start times,
// waits, costs and deadlines are deterministic for any worker count.
//
// The zero Scheduler reproduces the historical behavior: every job on
// its own dedicated instance (an unbounded fleet) under the
// SingleInstance policy.
type Scheduler struct {
	// Workers bounds how many jobs run concurrently on the real host;
	// 0 means GOMAXPROCS. Results are identical for every value.
	Workers int
	// Fleet is the bounded instance pool jobs contend for. nil builds a
	// dedicated pool with one instance per job (each job's own
	// Instance), which never queues. A caller-supplied fleet is mutated
	// with the schedule's leases; Reset it before reuse.
	Fleet *cloud.Fleet
	// Policy decides which instance type each stage queues for; nil
	// means SingleInstance. Stage-level policies (ReInstance true)
	// require an explicit Fleet.
	Policy Policy
	// Cache is the fleet-wide content-addressed artifact store. When
	// set, pipelines look stages up under the frozen-store discipline
	// (Peek only — race-free in the parallel phase) and the scheduler
	// settles all accounting serially in job order before placement, so
	// hit/miss billing, schedules and artifacts are bit-identical at
	// any worker count. Eviction to the store's byte budget runs once,
	// at the end of the batch.
	Cache *cache.Store
}

// preparedJob is the phase-1 output for one job: its executed
// artifacts and reports plus the policy's per-stage instance requests,
// ready for the placement simulation.
type preparedJob struct {
	res      JobResult
	kinds    []JobKind
	requests map[JobKind]cloud.InstanceType
	// seconds, when non-nil, fixes each stage's simulated runtime
	// directly instead of replaying a probed report through the placed
	// machine's model — the forecast path (see Forecast), which has
	// predictions but no executed pipeline.
	seconds map[JobKind]float64
	// readySec is the earliest simulated time the job's first stage may
	// start — the arrival time of a job entering a rolling-horizon
	// forecast (ForecastJob.ReadySec). Zero for batch runs.
	readySec float64
	// cached marks the stages the batch settled as artifact-cache hits
	// (adopted, or deduped against an earlier job of the same batch):
	// they run for the probe constant and book no lease unless the job
	// holds its machine.
	cached map[JobKind]bool
}

// stageSeconds predicts stage k's runtime on instance type it. Order
// of preference: the forecast's fixed prediction; the probed report
// replayed through the machine model when the stage was probed for
// this type (the exact path plan execution is validated on); the
// job's choice table for a stage placed on a different type than its
// probe was sized for; and the probed report again as
// the last resort.
func (p *preparedJob) stageSeconds(job *Job, k JobKind, it cloud.InstanceType) float64 {
	// A cached stage costs the probe constant on any machine — checked
	// first so forecasts and executions price hits identically.
	if p.cached[k] {
		return cache.ProbeSeconds
	}
	if p.seconds != nil {
		return p.seconds[k]
	}
	if req, ok := p.requests[k]; ok && req.Name == it.Name {
		return jobMachine(job, it).Seconds(p.res.Run.Reports[k])
	}
	if opt, ok := job.Choices.Option(k, it.Name); ok {
		return opt.Seconds
	}
	return jobMachine(job, it).Seconds(p.res.Run.Reports[k])
}

// Run executes the jobs and returns the aggregated schedule. A
// cancelled context fails the jobs that have not started and is
// reported both per job and as the returned error.
func (s *Scheduler) Run(ctx context.Context, jobs []Job) (*Schedule, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	policy := s.Policy
	if policy == nil {
		policy = SingleInstance{}
	}
	fleet := s.Fleet
	if fleet == nil {
		if policy.ReInstance() {
			return nil, fmt.Errorf("flow: policy %s re-instances between stages and needs an explicit Fleet", policy.Name())
		}
		entries := make([]cloud.FleetEntry, len(jobs))
		for i := range jobs {
			entries[i] = cloud.FleetEntry{Type: jobs[i].Instance, Count: 1}
		}
		fleet = cloud.NewFleet(entries...)
	}

	// Phase 1: run every job's pipeline (the real compute) in parallel.
	// With a cache attached the store is frozen for this phase: runs
	// only Peek and record their lookups.
	pool := par.Fixed(s.Workers)
	prepared := par.Map(pool, len(jobs), func(i int) *preparedJob {
		return prepare(ctx, &jobs[i], policy, s.Cache)
	})

	// Settle the cache serially in job order: bill hits and misses,
	// land computed entries (which is what turns two jobs sharing a
	// prefix into one compute plus one billed hit), then enforce the
	// byte budget once for the whole batch.
	if s.Cache != nil {
		for i := range prepared {
			if prepared[i].res.Run != nil {
				prepared[i].cached = replayAccounting(s.Cache, prepared[i].res.Run)
			}
		}
		s.Cache.EvictOver()
	}

	// Phase 2: place stages onto the fleet in a serial, deterministic
	// event simulation. With the internally built dedicated fleet, job
	// i is pinned to instance i, reproducing the historical
	// one-job-one-instance schedule exactly.
	pinned := s.Fleet == nil
	simulate(fleet, policy, jobs, prepared, pinned, nil)

	return buildSchedule(policy.Name(), fleet, prepared), ctx.Err()
}

// buildSchedule folds the placed jobs into the aggregate Schedule, in
// job order so every float sum is identical for any worker count. It
// serves both real runs and forecasts.
func buildSchedule(policyName string, fleet *cloud.Fleet, prepared []*preparedJob) *Schedule {
	sched := &Schedule{Policy: policyName, Fleet: fleet}
	for i := range prepared {
		r := &prepared[i].res
		sched.Jobs = append(sched.Jobs, *r)
		sched.TotalCostUSD += r.CostUSD
		sched.TotalCPUSeconds += r.Seconds
		sched.TotalWaitSec += r.WaitSec
		sched.Revocations += r.Revocations
		sched.RetriedSec += r.RetriedSec
		for _, st := range r.Stages {
			if st.Cached {
				sched.CacheHits++
			}
		}
		if r.FinishSec > sched.MakespanSec {
			sched.MakespanSec = r.FinishSec
		}
		if r.Err != nil {
			sched.Failed++
			continue
		}
		if !r.DeadlineMet {
			sched.DeadlinesMissed++
		}
	}
	sched.UtilizationPct = 100 * fleet.Utilization(sched.MakespanSec)
	return sched
}

// prepare runs one job's pipeline with per-stage probes sized to the
// policy's requested instance types, and collects the stage kinds and
// requests the placement simulation needs. It performs no fleet
// accounting — everything here is independent per job, which is what
// lets phase 1 fan out across cores.
func prepare(ctx context.Context, job *Job, policy Policy, store *cache.Store) *preparedJob {
	p := &preparedJob{res: JobResult{Name: job.Name, Instance: job.Instance}}
	if err := ctx.Err(); err != nil {
		p.res.Err = err
		return p
	}
	if job.Design == nil || job.Lib == nil {
		p.res.Err = fmt.Errorf("flow: job %q needs a design and a library", job.Name)
		return p
	}

	estCells := EstimateCells(job.Design.NumAnds())
	p.requests = map[JobKind]cloud.InstanceType{}
	opts := []Option{
		WithContext(ctx),
		WithNewProbe(func(k JobKind) *perf.Probe {
			return NewJobProbe(probeVCPUs(job, p.requests[k]), estCells)
		}),
	}
	if store != nil {
		opts = append(opts, withFrozenCache(store))
	}
	opts = append(opts, job.Options...)
	pipe := NewPipeline(opts...)

	// The pipeline's stage list determines which stages will run;
	// resolve the policy's per-stage instance requests before running
	// so each stage's probe is sized to the machine it is destined for
	// (the probe factory above reads the map lazily).
	for _, st := range pipe.Stages() {
		k := st.Kind()
		if _, ok := p.requests[k]; ok {
			continue
		}
		it, err := policy.Choose(job, k)
		if err != nil {
			p.res.Err = err
			return p
		}
		p.requests[k] = it
	}

	rc, err := pipe.Run(job.Design.Clone(), job.Lib)
	p.res.Run = rc
	if err != nil {
		p.res.Err = err
		return p
	}
	// Fixed kind order keeps stage sequencing — and therefore every
	// floating-point sum over stages — independent of which stages ran.
	for _, k := range JobKinds() {
		if rc.Reports[k] != nil {
			p.kinds = append(p.kinds, k)
		}
	}
	return p
}

// probeVCPUs sizes a stage's instrumentation: the requested instance's
// vCPU count, falling back to the job's own instance (a policy that
// requests "any" machine profiles at the job's nominal size) and then
// to a single vCPU.
func probeVCPUs(job *Job, req cloud.InstanceType) int {
	if req.VCPUs > 0 {
		return req.VCPUs
	}
	if job.Instance.VCPUs > 0 {
		return job.Instance.VCPUs
	}
	return 1
}

// jobMachine builds the cycle model of one instance type running one
// job's stages.
func jobMachine(job *Job, it cloud.InstanceType) perf.Machine {
	vcpus := it.VCPUs
	if vcpus <= 0 {
		vcpus = 1
	}
	m := perf.Xeon14(vcpus)
	if !it.AVX {
		m = m.WithoutAVX()
	}
	m.WorkScale = job.WorkScale
	if m.WorkScale == 0 {
		m.WorkScale = 1
	}
	return m
}
