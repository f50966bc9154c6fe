package flow

import (
	"context"
	"math"
	"reflect"
	"testing"

	"edacloud/internal/cloud"
	"edacloud/internal/designs"
)

// This file is the placement conformance suite: table-driven
// invariants every batch must satisfy whatever its jobs' data asks for
// — held machines (no Plan), any-machine plans (zero types), typed and
// re-planned plans, and a mix of all three on one fleet — run through
// one shared harness so a new configuration gets coverage by adding a
// single table entry. The invariants are the scheduler's load-bearing
// promises — each job is placed as its data says, a fleet instance
// never runs two leases at once, jobs are served FIFO within an
// instance type, the fleet ledger and the per-job bills agree, and the
// schedule is bit-identical at any worker count.

// conformanceCase is one batch under test: how to build its jobs and
// the fleet they contend for. Spot cases additionally seed a
// deterministic revocation model and a retry policy, and run the
// checkpoint/escalation invariants on top of the shared ones.
type conformanceCase struct {
	name      string
	fleetSpec string
	minBill   float64
	// spot builds the fleet on a spot-discounted catalog and arms the
	// seeded revocation injector at hazardRate revocations per
	// instance-hour.
	spot       bool
	hazardSeed int64
	hazardRate float64
	retry      RetryPolicy
	// wantEscalation requires at least one stage to escalate from a
	// revoked spot type to its on-demand counterpart.
	wantEscalation bool
	jobs           func(t *testing.T) []Job
}

// conformancePlan builds the shared stage plan and choice table the
// planned jobs run under: cheap planned types with faster
// upgrade candidates, deliberately contended on a small fleet.
func conformancePlan(t *testing.T) (StagePlan, StageChoices) {
	t.Helper()
	catalog := cloud.DefaultCatalog()
	plan := StagePlan{}
	choices := StageChoices{}
	for k, names := range map[JobKind][]string{
		JobSynthesis: {"gp.1x", "gp.8x"},
		JobPlacement: {"mem.1x", "mem.8x"},
		JobRouting:   {"mem.1x", "mem.8x"},
		JobSTA:       {"gp.1x", "gp.8x"},
	} {
		for i, name := range names {
			it, err := catalog.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				plan[k] = it
			}
			// Predicted runtimes scale down with size — plausible values
			// are all the invariants need.
			choices[k] = append(choices[k], StageOption{
				Type:    it,
				Seconds: 90 / float64(it.VCPUs),
				CostUSD: it.Cost(90 / float64(it.VCPUs)),
			})
		}
	}
	return plan, choices
}

func conformanceCases() []conformanceCase {
	planJobs := func(deadline float64) func(t *testing.T) []Job {
		return func(t *testing.T) []Job {
			plan, choices := conformancePlan(t)
			jobs := fleetJobs(t, 4)
			for i := range jobs {
				jobs[i].Plan = plan
				jobs[i].Choices = choices
				jobs[i].DeadlineSec = deadline
			}
			return jobs
		}
	}
	singleJobs := func(t *testing.T) []Job {
		jobs := fleetJobs(t, 4)
		inst, err := cloud.DefaultCatalog().ByName("mem.4x")
		if err != nil {
			t.Fatal(err)
		}
		for i := range jobs {
			jobs[i].Instance = inst
		}
		return jobs
	}
	spotSingleJobs := func(t *testing.T) []Job {
		jobs := fleetJobs(t, 4)
		inst, err := spotTestCatalog(t).ByName("mem.4x.spot")
		if err != nil {
			t.Fatal(err)
		}
		for i := range jobs {
			jobs[i].Instance = inst
		}
		return jobs
	}
	anyJobs := func(t *testing.T) []Job {
		return withPlan(fleetJobs(t, 5), anyMachinePlan())
	}
	hierJobs := func(t *testing.T) []Job {
		hb, err := Hierarchical(Job{
			Design:    designs.MustEvalDesign("aes", testScale),
			Lib:       lib,
			Plan:      anyMachinePlan(),
			WorkScale: 2e4,
		}, 500)
		if err != nil {
			t.Fatal(err)
		}
		return hb.Jobs
	}
	// mixedJobs puts all three placement modes on one fleet: held
	// mem.4x jobs, any-machine jobs and deadline-pressed planned jobs
	// that re-plan, in interleaved job order.
	mixedJobs := func(t *testing.T) []Job {
		held, planned := singleJobs(t), planJobs(120)(t)
		anyMachine := withPlan(fleetJobs(t, 2), anyMachinePlan())
		return []Job{held[0], anyMachine[0], planned[0], held[1], anyMachine[1], planned[1]}
	}
	return []conformanceCase{
		{name: "single-instance", fleetSpec: "mem.4x=2", jobs: singleJobs},
		// Hierarchical batches are plain jobs — one huge design's cone
		// partitions contending for the fleet must satisfy every
		// scheduler invariant unchanged.
		{name: "hierarchical-first-fit", fleetSpec: "gp.4x=1,mem.4x=1,cpu.2x=1", jobs: hierJobs},
		{name: "single-instance-minbill", fleetSpec: "mem.4x=2", minBill: 60, jobs: singleJobs},
		{name: "first-fit", fleetSpec: "gp.4x=1,mem.4x=1,cpu.2x=1", jobs: anyJobs},
		{name: "plan", fleetSpec: "gp.1x=1,gp.8x=1,mem.1x=1,mem.8x=1", jobs: planJobs(0)},
		// A tight deadline on jobs that carry their choice tables forces
		// the placement-time re-plan (current + remaining stages together),
		// so the invariants cover off-plan execution, not just plan replay.
		{name: "adaptive", fleetSpec: "gp.1x=1,gp.8x=1,mem.1x=1,mem.8x=1", jobs: planJobs(120)},
		// Held, any-machine and re-planning jobs contend for one fleet:
		// any-machine stages take the typed jobs' instances and the
		// typed jobs queue behind them.
		{name: "mixed", fleetSpec: "mem.4x=1,gp.1x=1,gp.8x=1,mem.1x=1,mem.8x=1", jobs: mixedJobs},
		// Spot cases: the same invariants must survive seeded
		// revocations, plus the checkpoint-recovery and escalation ones.
		{name: "spot-first-fit", spot: true,
			fleetSpec:  "gp.4x.spot=1,mem.4x.spot=1,cpu.2x.spot=1",
			hazardSeed: 7, hazardRate: 30,
			retry: RetryPolicy{MaxAttempts: 200, BackoffSec: 20},
			jobs:  anyJobs},
		{name: "spot-single-instance", spot: true,
			fleetSpec:  "mem.4x.spot=2",
			hazardSeed: 11, hazardRate: 30,
			retry: RetryPolicy{MaxAttempts: 200, BackoffSec: 20},
			jobs:  spotSingleJobs},
		// Escalation is type-driven (the request's spot type names its
		// on-demand counterpart), so it needs typed requests: jobs held
		// on mem.4x.spot with one mem.4x machine to escalate onto.
		{name: "spot-escalation", spot: true,
			fleetSpec:  "mem.4x.spot=2,mem.4x=1",
			hazardSeed: 11, hazardRate: 60,
			retry:          RetryPolicy{MaxAttempts: 10, BackoffSec: 10, EscalateAfter: 1},
			wantEscalation: true,
			jobs:           spotSingleJobs},
	}
}

// TestPolicyConformance runs every placement configuration through the
// shared invariant harness.
func TestPolicyConformance(t *testing.T) {
	for _, tc := range conformanceCases() {
		t.Run(tc.name, func(t *testing.T) {
			catalog := cloud.DefaultCatalog()
			if tc.spot {
				catalog = spotTestCatalog(t)
			}
			if tc.minBill > 0 {
				catalog = catalog.WithMinBill(tc.minBill)
			}
			fleet, err := cloud.ParseFleetSpec(catalog, tc.fleetSpec)
			if err != nil {
				t.Fatal(err)
			}
			if tc.hazardRate > 0 {
				fleet.Revocation = cloud.NewRevocationModel(tc.hazardSeed,
					cloud.UniformSpotHazards(catalog, tc.hazardRate))
			}
			jobs := tc.jobs(t)
			if tc.retry != (RetryPolicy{}) {
				for i := range jobs {
					jobs[i].Retry = tc.retry
				}
			}

			run := func(workers int) *Schedule {
				f := fleet.Clone()
				sched, err := (&Scheduler{Workers: workers, Fleet: f}).Run(context.Background(), jobs)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				for _, j := range sched.Jobs {
					if j.Err != nil {
						t.Fatalf("workers=%d: job %s: %v", workers, j.Name, j.Err)
					}
				}
				return sched
			}

			want := run(1)
			checkPlacementRule(t, want, jobs)
			checkNoLeaseOverlap(t, want)
			checkFIFOReadyOrder(t, want, jobs)
			checkLedgerConsistency(t, want)
			checkIdenticalSchedules(t, want, run)
			if tc.hazardRate > 0 {
				if want.Revocations == 0 {
					t.Fatal("spot case produced no revocations; raise its hazard rate")
				}
				checkCheckpointRecovery(t, want)
				escalations := checkEscalationBounds(t, want, tc.retry)
				if tc.wantEscalation && escalations == 0 {
					t.Fatal("escalation case never escalated to on-demand; raise its hazard rate")
				}
			}
		})
	}
}

// checkCheckpointRecovery: revocations lose only the work since the
// last stage boundary. Per job and kind, every attempt but the last is
// a truncated revocation ending exactly at its RevokedAt, the last
// attempt completes, no attempt re-runs work from before the previous
// kind's completed checkpoint, and the job's lost-work ledger equals
// the revoked attempts' survived time — nothing more.
func checkCheckpointRecovery(t *testing.T, sched *Schedule) {
	t.Helper()
	for _, j := range sched.Jobs {
		byKind := map[string][]StageResult{}
		var order []string
		var lost float64
		for _, st := range j.Stages {
			k := st.Kind.String()
			if _, ok := byKind[k]; !ok {
				order = append(order, k)
			}
			byKind[k] = append(byKind[k], st)
			if st.Revoked {
				lost += st.Seconds
			}
		}
		var prevFinish float64
		for _, k := range order {
			atts := byKind[k]
			for i, st := range atts {
				if st.StartSec < prevFinish-1e-9 {
					t.Fatalf("job %s %s attempt %d starts at %g before prior checkpoint %g: redoes finished work",
						j.Name, k, st.Attempt, st.StartSec, prevFinish)
				}
				if i < len(atts)-1 {
					if !st.Revoked {
						t.Fatalf("job %s %s attempt %d completed yet the kind ran again", j.Name, k, st.Attempt)
					}
					if math.Abs(st.RevokedAt-(st.StartSec+st.Seconds)) > 1e-9 {
						t.Fatalf("job %s %s attempt %d: survived %g s but revoked at %g (start %g)",
							j.Name, k, st.Attempt, st.Seconds, st.RevokedAt, st.StartSec)
					}
				} else if st.Revoked {
					t.Fatalf("job %s %s never completed: %+v", j.Name, k, st)
				}
			}
			last := atts[len(atts)-1]
			prevFinish = last.StartSec + last.Seconds
		}
		if math.Abs(lost-j.RetriedSec) > 1e-9 {
			t.Fatalf("job %s lost-work ledger %g, revoked attempts survived %g", j.Name, j.RetriedSec, lost)
		}
	}
}

// checkEscalationBounds: attempt numbers stay within the retry
// policy's cap, on-demand attempts are never revoked, and a stage that
// moved off its spot type did so only after EscalateAfter revocations
// and only onto that spot type's declared on-demand counterpart.
// Returns how many attempts ran escalated.
func checkEscalationBounds(t *testing.T, sched *Schedule, retry RetryPolicy) int {
	t.Helper()
	maxAttempts := retry.withDefaults().MaxAttempts
	escalations := 0
	for _, j := range sched.Jobs {
		first := map[string]cloud.InstanceType{}
		revs := map[string]int{}
		for _, st := range j.Stages {
			k := st.Kind.String()
			if st.Attempt < 1 || st.Attempt > maxAttempts {
				t.Fatalf("job %s %s attempt %d outside 1..%d", j.Name, k, st.Attempt, maxAttempts)
			}
			if _, ok := first[k]; !ok {
				first[k] = st.Type
			}
			if !st.Type.Revocable {
				if st.Revoked {
					t.Fatalf("job %s %s: on-demand attempt revoked: %+v", j.Name, k, st)
				}
				if first[k].Revocable {
					if retry.EscalateAfter <= 0 {
						t.Fatalf("job %s %s escalated off spot with escalation disabled", j.Name, k)
					}
					if revs[k] < retry.EscalateAfter {
						t.Fatalf("job %s %s escalated after %d revocations, policy requires %d",
							j.Name, k, revs[k], retry.EscalateAfter)
					}
					if st.Type.Name != first[k].OnDemand {
						t.Fatalf("job %s %s escalated to %q, not the counterpart %q",
							j.Name, k, st.Type.Name, first[k].OnDemand)
					}
					escalations++
				}
			}
			if st.Revoked {
				revs[k]++
			}
		}
	}
	return escalations
}

// checkNoLeaseOverlap: no fleet instance ever runs two leases at once,
// and every lease lies within the schedule makespan.
func checkNoLeaseOverlap(t *testing.T, sched *Schedule) {
	t.Helper()
	for _, inst := range sched.Fleet.Instances {
		for i, l := range inst.Leases {
			if l.EndSec < l.StartSec {
				t.Fatalf("instance %s lease %d runs backwards: %+v", inst.ID, i, l)
			}
			if l.EndSec > sched.MakespanSec {
				t.Fatalf("instance %s lease %d ends at %g past makespan %g", inst.ID, i, l.EndSec, sched.MakespanSec)
			}
			if i > 0 && l.StartSec < inst.Leases[i-1].EndSec {
				t.Fatalf("instance %s leases overlap: %+v then %+v", inst.ID, inst.Leases[i-1], l)
			}
		}
	}
}

// checkPlacementRule: each job is placed as its data says. A job
// without a Plan runs every stage on its Instance type (or that type's
// on-demand counterpart once escalated) and stays on one machine until
// a revocation takes it away. A planned stage runs on its plan entry,
// the entry's on-demand counterpart or a re-plan pick from the job's
// choice table; a zero entry runs anywhere.
func checkPlacementRule(t *testing.T, sched *Schedule, jobs []Job) {
	t.Helper()
	for i, j := range sched.Jobs {
		job := &jobs[i]
		for s, st := range j.Stages {
			if len(job.Plan) == 0 {
				if st.Type.Name != job.Instance.Name && st.Type.Name != job.Instance.OnDemand {
					t.Fatalf("held job %s ran %s on %s, not its instance %s", j.Name, st.Kind, st.Type.Name, job.Instance.Name)
				}
				if s > 0 && !j.Stages[s-1].Revoked && st.Instance != j.Stages[s-1].Instance {
					t.Fatalf("held job %s moved from %s to %s at %s", j.Name, j.Stages[s-1].Instance, st.Instance, st.Kind)
				}
				continue
			}
			want := job.Plan[st.Kind]
			if want.Name == "" || st.Type.Name == want.Name || st.Type.Name == want.OnDemand {
				continue
			}
			if _, ok := job.Choices.Option(st.Kind, st.Type.Name); !ok {
				t.Fatalf("planned job %s ran %s on %s: neither its plan entry %s nor a choice", j.Name, st.Kind, st.Type.Name, want.Name)
			}
		}
	}
}

// checkFIFOReadyOrder: among placements queueing for the same instance
// type (or for any machine, for a zero plan entry), a stage that became
// ready strictly earlier never starts later. A job without a Plan
// acquires once, so only its first stage is an acquisition.
func checkFIFOReadyOrder(t *testing.T, sched *Schedule, jobs []Job) {
	t.Helper()
	type acquisition struct {
		job, stage string
		key        string
		ready      float64
		start      float64
	}
	var acqs []acquisition
	for i, j := range sched.Jobs {
		held := len(jobs[i].Plan) == 0
		for s, st := range j.Stages {
			if held && s > 0 {
				continue // held machine: no queueing after the first stage
			}
			key := st.Type.Name
			if !held && jobs[i].Plan[st.Kind].Name == "" {
				key = ""
			}
			acqs = append(acqs, acquisition{
				job: j.Name, stage: st.Kind.String(), key: key,
				ready: st.StartSec - st.WaitSec, start: st.StartSec,
			})
		}
	}
	for i, a := range acqs {
		for _, b := range acqs[i+1:] {
			if a.key != b.key {
				continue
			}
			if a.ready < b.ready && a.start > b.start {
				t.Fatalf("FIFO violated on %q: %s/%s ready %g started %g after %s/%s ready %g started %g",
					a.key, a.job, a.stage, a.ready, a.start, b.job, b.stage, b.ready, b.start)
			}
			if b.ready < a.ready && b.start > a.start {
				t.Fatalf("FIFO violated on %q: %s/%s ready %g started %g after %s/%s ready %g started %g",
					b.key, b.job, b.stage, b.ready, b.start, a.job, a.stage, a.ready, a.start)
			}
		}
	}
}

// checkLedgerConsistency: the fleet ledger, the schedule total, the
// per-job bills and the per-stage bills all tell one story.
func checkLedgerConsistency(t *testing.T, sched *Schedule) {
	t.Helper()
	var jobSum float64
	for _, j := range sched.Jobs {
		var stageSum float64
		for _, st := range j.Stages {
			if st.CostUSD < 0 || st.Seconds < 0 || st.WaitSec < 0 {
				t.Fatalf("job %s stage %s negative accounting: %+v", j.Name, st.Kind, st)
			}
			stageSum += st.CostUSD
		}
		if math.Abs(stageSum-j.CostUSD) > 1e-9 {
			t.Fatalf("job %s bills %g, stages sum to %g", j.Name, j.CostUSD, stageSum)
		}
		jobSum += j.CostUSD
	}
	if math.Abs(jobSum-sched.TotalCostUSD) > 1e-9 {
		t.Fatalf("schedule bills %g, jobs sum to %g", sched.TotalCostUSD, jobSum)
	}
	if got := sched.Fleet.TotalCostUSD(); math.Abs(got-sched.TotalCostUSD) > 1e-9 {
		t.Fatalf("fleet ledger %g, schedule bill %g", got, sched.TotalCostUSD)
	}
	var leaseSum float64
	for _, inst := range sched.Fleet.Instances {
		for _, l := range inst.Leases {
			leaseSum += l.CostUSD
		}
	}
	if math.Abs(leaseSum-sched.TotalCostUSD) > 1e-9 {
		t.Fatalf("leases bill %g, schedule %g", leaseSum, sched.TotalCostUSD)
	}
}

// checkIdenticalSchedules: the whole schedule — every placement, bill
// and aggregate — is bit-identical at workers 1, 2 and 8.
func checkIdenticalSchedules(t *testing.T, want *Schedule, run func(int) *Schedule) {
	t.Helper()
	for _, w := range []int{2, 8} {
		got := run(w)
		if got.TotalCostUSD != want.TotalCostUSD ||
			got.TotalCPUSeconds != want.TotalCPUSeconds ||
			got.MakespanSec != want.MakespanSec ||
			got.TotalWaitSec != want.TotalWaitSec ||
			got.UtilizationPct != want.UtilizationPct ||
			got.DeadlinesMissed != want.DeadlinesMissed ||
			got.Revocations != want.Revocations ||
			got.RetriedSec != want.RetriedSec {
			t.Fatalf("workers=%d: aggregates differ", w)
		}
		for i := range want.Jobs {
			g, s := got.Jobs[i], want.Jobs[i]
			if g.Seconds != s.Seconds || g.CostUSD != s.CostUSD ||
				g.StartSec != s.StartSec || g.FinishSec != s.FinishSec || g.WaitSec != s.WaitSec ||
				g.Revocations != s.Revocations || g.RetriedSec != s.RetriedSec ||
				g.RecoveredFromCheckpoint != s.RecoveredFromCheckpoint {
				t.Fatalf("workers=%d: job %d differs: %+v vs %+v", w, i, g, s)
			}
			if !reflect.DeepEqual(g.Stages, s.Stages) {
				t.Fatalf("workers=%d: job %d placements differ:\n%+v\n%+v", w, i, g.Stages, s.Stages)
			}
		}
	}
}

// TestAdaptiveConformanceUpgrades: the adaptive table entry must
// actually leave the plan — otherwise the suite is only re-testing
// the "plan" entry under another name.
func TestAdaptiveConformanceUpgrades(t *testing.T) {
	var tc conformanceCase
	for _, c := range conformanceCases() {
		if c.name == "adaptive" {
			tc = c
		}
	}
	if tc.name == "" {
		t.Fatal("no adaptive conformance case")
	}
	fleet, err := cloud.ParseFleetSpec(cloud.DefaultCatalog(), tc.fleetSpec)
	if err != nil {
		t.Fatal(err)
	}
	jobs := tc.jobs(t)
	sched, err := (&Scheduler{Fleet: fleet}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	upgrades := 0
	for i, j := range sched.Jobs {
		if j.Err != nil {
			t.Fatal(j.Err)
		}
		for _, st := range j.Stages {
			if st.Type.Name != jobs[i].Plan[st.Kind].Name {
				upgrades++
			}
		}
	}
	if upgrades == 0 {
		t.Fatal("adaptive conformance case never upgrades; tighten its deadline")
	}
}
