package flow

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"edacloud/internal/cloud"
	"edacloud/internal/designs"
)

func boundedFleet(t *testing.T, spec string) *cloud.Fleet {
	t.Helper()
	f, err := cloud.ParseFleetSpec(cloud.DefaultCatalog(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// anyMachinePlan is the greedy first-fit baseline as job data: every
// stage asks for the zero type, i.e. whichever instance frees first.
func anyMachinePlan() StagePlan {
	plan := StagePlan{}
	for _, k := range JobKinds() {
		plan[k] = cloud.InstanceType{}
	}
	return plan
}

// withPlan gives every job the plan and returns the jobs.
func withPlan(jobs []Job, plan StagePlan) []Job {
	for i := range jobs {
		jobs[i].Plan = plan
	}
	return jobs
}

func fleetJobs(t *testing.T, n int) []Job {
	t.Helper()
	names := []string{"dyn_node", "aes", "ibex", "jpeg", "aes"}
	var jobs []Job
	for i := 0; i < n; i++ {
		name := names[i%len(names)]
		jobs = append(jobs, Job{
			Name:      name,
			Design:    designs.MustEvalDesign(name, testScale),
			Lib:       lib,
			WorkScale: 2e4,
		})
	}
	return jobs
}

// TestFleetSchedulerDeterministicAcrossWorkers: with jobs contending
// for a bounded fleet on any-machine plans (greedy first fit), every
// placement — stage instances, start times, waits, bills — must be
// bit-identical at any worker count.
func TestFleetSchedulerDeterministicAcrossWorkers(t *testing.T) {
	jobs := withPlan(fleetJobs(t, 5), anyMachinePlan())
	run := func(workers int) *Schedule {
		fleet := boundedFleet(t, "gp.4x=1,mem.8x=1,cpu.2x=1")
		sched, err := (&Scheduler{Workers: workers, Fleet: fleet}).Run(context.Background(), jobs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if sched.Failed != 0 {
			for _, j := range sched.Jobs {
				if j.Err != nil {
					t.Fatalf("workers=%d: job %s: %v", workers, j.Name, j.Err)
				}
			}
		}
		return sched
	}
	want := run(1)
	for _, w := range []int{2, 8} {
		got := run(w)
		if got.TotalCostUSD != want.TotalCostUSD ||
			got.TotalCPUSeconds != want.TotalCPUSeconds ||
			got.MakespanSec != want.MakespanSec ||
			got.TotalWaitSec != want.TotalWaitSec ||
			got.UtilizationPct != want.UtilizationPct ||
			got.DeadlinesMissed != want.DeadlinesMissed {
			t.Fatalf("workers=%d: aggregates differ: %+v vs %+v", w, got, want)
		}
		for i := range want.Jobs {
			g, s := got.Jobs[i], want.Jobs[i]
			if g.Seconds != s.Seconds || g.CostUSD != s.CostUSD ||
				g.StartSec != s.StartSec || g.FinishSec != s.FinishSec || g.WaitSec != s.WaitSec {
				t.Fatalf("workers=%d: job %d differs: %+v vs %+v", w, i, g, s)
			}
			if !reflect.DeepEqual(g.Stages, s.Stages) {
				t.Fatalf("workers=%d: job %d placements differ:\n%+v\n%+v", w, i, g.Stages, s.Stages)
			}
		}
	}
	// Five 4-stage flows on three machines must actually contend.
	if want.TotalWaitSec <= 0 {
		t.Fatal("bounded fleet produced no queueing")
	}
	if want.UtilizationPct <= 0 || want.UtilizationPct > 100 {
		t.Fatalf("utilization %g%% out of range", want.UtilizationPct)
	}
	if want.MakespanSec <= want.Jobs[0].Seconds {
		t.Fatal("contended makespan not beyond a single job's runtime")
	}
}

// TestBoundedFleetQueueingFIFO: identical jobs on a one-instance fleet
// serialize in job order, later jobs wait, and the single machine ends
// up fully utilized.
func TestBoundedFleetQueueingFIFO(t *testing.T) {
	jobs := fleetJobs(t, 3)
	jobs[1], jobs[2] = jobs[0], jobs[0] // three copies of the same job
	inst, err := cloud.DefaultCatalog().ByName("mem.8x")
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		jobs[i].Instance = inst
	}
	fleet := cloud.NewFleet(cloud.FleetEntry{Type: inst, Count: 1})
	sched, err := (&Scheduler{Fleet: fleet}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	d := sched.Jobs[0].Seconds
	if d <= 0 {
		t.Fatal("zero-length job")
	}
	for i, j := range sched.Jobs {
		if j.Err != nil {
			t.Fatal(j.Err)
		}
		if j.Seconds != d {
			t.Fatalf("job %d runtime %g, want %g", i, j.Seconds, d)
		}
		wantStart := float64(i) * d
		if math.Abs(j.StartSec-wantStart) > 1e-9 {
			t.Fatalf("job %d starts at %g, want %g (FIFO)", i, j.StartSec, wantStart)
		}
		if i > 0 && j.WaitSec <= 0 {
			t.Fatalf("queued job %d reports no wait", i)
		}
		if want := inst.Cost(j.Seconds); j.CostUSD != want {
			t.Fatalf("job %d cost %g, want %g", i, j.CostUSD, want)
		}
	}
	if math.Abs(sched.UtilizationPct-100) > 1e-6 {
		t.Fatalf("back-to-back single machine at %g%% utilization", sched.UtilizationPct)
	}
	if got := fleet.TotalCostUSD(); math.Abs(got-sched.TotalCostUSD) > 1e-9 {
		t.Fatalf("fleet ledger %g vs schedule bill %g", got, sched.TotalCostUSD)
	}
	if len(fleet.Instances[0].Leases) != 3 {
		t.Fatalf("%d leases, want 3 (one held lease per job)", len(fleet.Instances[0].Leases))
	}
}

// TestPlanPolicyReInstancesBetweenStages: a job under a stage plan
// runs every stage on the plan-chosen type with one lease per stage,
// billed per stage.
func TestPlanPolicyReInstancesBetweenStages(t *testing.T) {
	catalog := cloud.DefaultCatalog()
	plan := StagePlan{}
	for k, name := range map[JobKind]string{
		JobSynthesis: "gp.1x",
		JobPlacement: "mem.4x",
		JobRouting:   "mem.8x",
		JobSTA:       "gp.2x",
	} {
		it, err := catalog.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		plan[k] = it
	}
	job := fleetJobs(t, 1)[0]
	job.Plan = plan
	fleet := boundedFleet(t, "gp.1x,gp.2x,mem.4x,mem.8x")
	sched, err := (&Scheduler{Fleet: fleet}).Run(context.Background(), []Job{job})
	if err != nil {
		t.Fatal(err)
	}
	j := sched.Jobs[0]
	if j.Err != nil {
		t.Fatal(j.Err)
	}
	if len(j.Stages) != 4 {
		t.Fatalf("%d stages, want 4", len(j.Stages))
	}
	var cost, secs float64
	for _, st := range j.Stages {
		if st.Type.Name != plan[st.Kind].Name {
			t.Fatalf("stage %s on %s, plan says %s", st.Kind, st.Type.Name, plan[st.Kind].Name)
		}
		if st.Seconds <= 0 {
			t.Fatalf("stage %s: non-positive runtime", st.Kind)
		}
		if want := st.Type.Cost(st.Seconds); st.CostUSD != want {
			t.Fatalf("stage %s billed %g, want per-stage lease %g", st.Kind, st.CostUSD, want)
		}
		if st.WaitSec != 0 {
			t.Fatalf("lone job waited %gs at %s", st.WaitSec, st.Kind)
		}
		cost += st.CostUSD
		secs += st.Seconds
	}
	if math.Abs(j.CostUSD-cost) > 1e-12 || math.Abs(j.Seconds-secs) > 1e-9 {
		t.Fatalf("job aggregates %g/%g vs stage sums %g/%g", j.CostUSD, j.Seconds, cost, secs)
	}
	// One lease per stage across four distinct machines.
	total := 0
	for _, inst := range fleet.Instances {
		if len(inst.Leases) > 1 {
			t.Fatalf("instance %s holds %d leases for a re-instancing job", inst.ID, len(inst.Leases))
		}
		total += len(inst.Leases)
	}
	if total != 4 {
		t.Fatalf("%d leases, want 4", total)
	}
}

// TestFleetSchedulerErrors: a plan missing an entry for a stage that
// runs and an unsatisfiable instance request fail the job (not the
// batch), and the failure bookkeeping holds.
func TestFleetSchedulerErrors(t *testing.T) {
	catalog := cloud.DefaultCatalog()
	cpu8, err := catalog.ByName("cpu.8x")
	if err != nil {
		t.Fatal(err)
	}
	good := fleetJobs(t, 1)[0]
	good.Plan = StagePlan{}
	for _, k := range JobKinds() {
		good.Plan[k] = cpu8
	}
	partial := fleetJobs(t, 1)[0]
	partial.Plan = StagePlan{}
	for k, it := range good.Plan {
		if k != JobRouting {
			partial.Plan[k] = it
		}
	}

	fleet := boundedFleet(t, "cpu.8x=1")
	idle := fleet.Clone()
	sched, err := (&Scheduler{Fleet: fleet}).Run(context.Background(), []Job{good, partial, good})
	if err != nil {
		t.Fatal(err)
	}
	if sched.Failed != 1 || sched.Jobs[1].Err == nil || sched.Jobs[0].Err != nil || sched.Jobs[2].Err != nil {
		t.Fatalf("failure bookkeeping wrong: failed=%d", sched.Failed)
	}
	if msg := sched.Jobs[1].Err.Error(); !strings.Contains(msg, "no plan entry for stage "+JobRouting.String()) {
		t.Fatalf("partial plan failed with %q, want the missing routing entry named", msg)
	}

	// A plan naming a type absent from the fleet fails at placement.
	gp1, err := catalog.ByName("gp.1x")
	if err != nil {
		t.Fatal(err)
	}
	bad := fleetJobs(t, 1)[0]
	bad.Plan = StagePlan{}
	for _, k := range JobKinds() {
		bad.Plan[k] = cpu8
	}
	bad.Plan[JobRouting] = gp1
	sched, err = (&Scheduler{Fleet: idle}).Run(context.Background(), []Job{bad})
	if err != nil {
		t.Fatal(err)
	}
	if sched.Failed != 1 || sched.Jobs[0].Err == nil {
		t.Fatalf("unsatisfiable request not failed: %+v", sched.Jobs[0].Err)
	}
}

// TestNilFleetRefusesPlannedJob: the pool a nil Fleet builds holds one
// machine per job for the whole flow, so a batch in which one job
// carries a Plan — and would re-instance between stages — is refused
// before any pipeline runs, naming the job. The same batch without the
// plan runs.
func TestNilFleetRefusesPlannedJob(t *testing.T) {
	jobs := fleetJobs(t, 2)
	jobs[1].Plan = anyMachinePlan()
	if _, err := (&Scheduler{}).Run(context.Background(), jobs); err == nil ||
		!strings.Contains(err.Error(), jobs[1].Name) {
		t.Fatalf("nil fleet with a planned job: err %v, want a refusal naming %q", err, jobs[1].Name)
	}
	jobs[1].Plan = nil
	sched, err := (&Scheduler{}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Failed != 0 {
		t.Fatalf("%d held jobs failed on the dedicated pool", sched.Failed)
	}
}
