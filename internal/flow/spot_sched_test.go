package flow

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"edacloud/internal/cloud"
)

func spotTestCatalog(t *testing.T) *cloud.Catalog {
	t.Helper()
	c, err := cloud.DefaultCatalog().WithSpot(0.7)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func spotTestFleet(t *testing.T, spec string, seed int64, ratePerHour float64) *cloud.Fleet {
	t.Helper()
	c := spotTestCatalog(t)
	f, err := cloud.ParseFleetSpec(c, spec)
	if err != nil {
		t.Fatal(err)
	}
	f.Revocation = cloud.NewRevocationModel(seed, cloud.UniformSpotHazards(c, ratePerHour))
	return f
}

// spotForecastJobs builds forecast jobs whose every stage runs ~600 s
// on a spot type — long enough that a 6/hour hazard interrupts often.
func spotForecastJobs(t *testing.T, n int, typeName string, retry RetryPolicy) []ForecastJob {
	t.Helper()
	c := spotTestCatalog(t)
	it, err := c.ByName(typeName)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]ForecastJob, n)
	for i := range jobs {
		fj := ForecastJob{Name: "job" + string(rune('A'+i)), Retry: retry}
		for j, k := range JobKinds() {
			fj.Stages = append(fj.Stages, ForecastStage{
				Kind: k, Type: it, Seconds: 600 + float64(40*i+10*j),
			})
		}
		jobs[i] = fj
	}
	return jobs
}

// TestZeroHazardScheduleByteIdentical: attaching a zero-hazard
// revocation model must reproduce the model-free schedule byte for
// byte — jobs, stages, leases, aggregates.
func TestZeroHazardScheduleByteIdentical(t *testing.T) {
	jobs := withPlan(fleetJobs(t, 4), anyMachinePlan())
	run := func(zeroModel bool) *Schedule {
		fleet := boundedFleet(t, "gp.4x=1,mem.8x=1,cpu.2x=1")
		if zeroModel {
			fleet.Revocation = cloud.NewRevocationModel(42, nil)
		}
		sched, err := (&Scheduler{Fleet: fleet}).Run(context.Background(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		sched.Fleet = nil // the fleets differ only by the model pointer
		for i := range sched.Jobs {
			sched.Jobs[i].Run = nil // run contexts are per-run allocations
		}
		return sched
	}
	want, got := run(false), run(true)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("zero-hazard model changed the schedule:\n%+v\nvs\n%+v", want, got)
	}
	if got.Revocations != 0 || got.RetriedSec != 0 {
		t.Fatalf("zero hazard reported %d revocations, %g retried sec", got.Revocations, got.RetriedSec)
	}
}

// TestSpotRevocationRecovery: under a nonzero hazard, revoked stages
// lose only the truncated attempt (completed stages never re-run),
// every job still completes, the ledger equals the stage bills, and
// the whole schedule is a deterministic replay of the seed.
func TestSpotRevocationRecovery(t *testing.T) {
	const seed, rate = 7, 6.0
	jobs := spotForecastJobs(t, 4, "mem.4x.spot", RetryPolicy{MaxAttempts: 50, BackoffSec: 30})
	run := func() *Schedule {
		fleet := spotTestFleet(t, "mem.4x.spot=2", seed, rate)
		sched, err := Forecast(fleet, jobs)
		if err != nil {
			t.Fatal(err)
		}
		return sched
	}
	sched := run()
	if sched.Failed != 0 {
		t.Fatalf("%d jobs failed", sched.Failed)
	}
	if sched.Revocations == 0 {
		t.Fatal("hazard 6/h over ~40 machine-minutes produced no revocations; seed needs retuning")
	}
	if sched.RetriedSec <= 0 {
		t.Fatal("revocations lost no work")
	}

	for _, j := range sched.Jobs {
		completed := map[JobKind]bool{}
		var lost, stageCost float64
		for _, st := range j.Stages {
			if st.Revoked {
				if completed[st.Kind] {
					t.Fatalf("job %s: completed stage %s re-ran after a later revocation (work lost past its checkpoint)", j.Name, st.Kind)
				}
				if st.RevokedAt != st.StartSec+st.Seconds {
					t.Fatalf("job %s: revoked attempt bookkeeping off: %+v", j.Name, st)
				}
				lost += st.Seconds
			} else {
				if completed[st.Kind] {
					t.Fatalf("job %s: stage %s completed twice", j.Name, st.Kind)
				}
				completed[st.Kind] = true
			}
			stageCost += st.CostUSD
		}
		for _, k := range JobKinds() {
			if !completed[k] {
				t.Fatalf("job %s: stage %s never completed", j.Name, k)
			}
		}
		if math.Abs(lost-j.RetriedSec) > 1e-9 {
			t.Fatalf("job %s: RetriedSec %g vs revoked attempt sum %g", j.Name, j.RetriedSec, lost)
		}
		if math.Abs(stageCost-j.CostUSD) > 1e-9 {
			t.Fatalf("job %s: stage bills %g vs job bill %g", j.Name, stageCost, j.CostUSD)
		}
		if j.Revocations > 0 && j.RecoveredFromCheckpoint == 0 && len(j.Stages) > 0 && j.Stages[0].Revoked && j.Revocations == 1 {
			// Only a first-stage-only revocation recovers nothing.
			continue
		}
	}
	if got := sched.Fleet.TotalCostUSD(); math.Abs(got-sched.TotalCostUSD) > 1e-9 {
		t.Fatalf("fleet ledger %g vs schedule bill %g (truncated leases must still reconcile)", got, sched.TotalCostUSD)
	}

	// The same seed replays the identical schedule.
	again := run()
	sched.Fleet, again.Fleet = nil, nil
	if !reflect.DeepEqual(sched, again) {
		t.Fatal("same seed did not replay the same schedule")
	}
}

// TestSpotEscalationToOnDemand: after EscalateAfter revocations of one
// stage, its retries request the on-demand counterpart — which is
// never revoked — and the attempt count stays within MaxAttempts.
func TestSpotEscalationToOnDemand(t *testing.T) {
	retry := RetryPolicy{MaxAttempts: 10, BackoffSec: 10, EscalateAfter: 1}
	jobs := spotForecastJobs(t, 3, "gp.4x.spot", retry)
	fleet := spotTestFleet(t, "gp.4x.spot=2,gp.4x=1", 3, 12)
	sched, err := Forecast(fleet, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Failed != 0 {
		t.Fatalf("%d jobs failed despite escalation", sched.Failed)
	}
	if sched.Revocations == 0 {
		t.Fatal("no revocations at 12/h; seed needs retuning")
	}
	escalated := false
	for _, j := range sched.Jobs {
		revs := map[JobKind]int{}
		for _, st := range j.Stages {
			if st.Type.Name == "gp.4x" {
				escalated = true
				if revs[st.Kind] < retry.EscalateAfter {
					t.Fatalf("job %s stage %s escalated after only %d revocations", j.Name, st.Kind, revs[st.Kind])
				}
				if st.Revoked {
					t.Fatalf("on-demand attempt revoked: %+v", st)
				}
			}
			if st.Attempt > retry.MaxAttempts {
				t.Fatalf("job %s stage %s ran attempt %d past the cap %d", j.Name, st.Kind, st.Attempt, retry.MaxAttempts)
			}
			if st.Revoked {
				revs[st.Kind]++
			}
		}
	}
	if !escalated {
		t.Fatal("no stage ever escalated to on-demand; seed needs retuning")
	}
}

// TestSpotMaxAttemptsFailsJob: a stage that cannot survive within its
// attempt budget fails its job; Forecast surfaces that as an error
// naming the exhausted cap.
func TestSpotMaxAttemptsFailsJob(t *testing.T) {
	// Brutal hazard: ~1 revocation per 36 s of busy time vs 600 s stages.
	retry := RetryPolicy{MaxAttempts: 3}
	jobs := spotForecastJobs(t, 2, "cpu.2x.spot", retry)
	fleet := spotTestFleet(t, "cpu.2x.spot=2", 5, 100)
	_, err := Forecast(fleet, jobs)
	if err == nil {
		t.Fatal("600 s stages under a 100/h hazard completed inside 3 attempts")
	}
	if !strings.Contains(err.Error(), "revoked on attempt 3/3") {
		t.Fatalf("error does not name the exhausted attempt cap: %v", err)
	}
}

// TestCheckpointedRetryLosesOnlyTruncatedAttempts: a revoked job
// resumes from its last stage boundary. The work it loses is exactly
// the revoked attempts' survived seconds, every completed stage runs
// once and in order, and each revocation past the first stage is
// recorded as a checkpoint recovery.
func TestCheckpointedRetryLosesOnlyTruncatedAttempts(t *testing.T) {
	const seed, rate = 11, 6.0
	retry := RetryPolicy{MaxAttempts: 200, BackoffSec: 30}
	jobs := spotForecastJobs(t, 3, "mem.8x.spot", retry)
	fleet := spotTestFleet(t, "mem.8x.spot=2", seed, rate)
	sched, err := Forecast(fleet, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Failed != 0 {
		t.Fatalf("%d jobs failed", sched.Failed)
	}
	if sched.Revocations == 0 {
		t.Fatal("no revocations; seed needs retuning")
	}
	recovered := 0
	for _, j := range sched.Jobs {
		var lost float64
		var done []JobKind
		resumes := 0
		for _, st := range j.Stages {
			if !st.Revoked {
				done = append(done, st.Kind)
				continue
			}
			lost += st.Seconds
			if st.Kind != JobKinds()[0] {
				resumes++
			}
		}
		if j.RetriedSec != lost {
			t.Errorf("%s: lost %g s, but its revoked attempts survived %g s", j.Name, j.RetriedSec, lost)
		}
		if !reflect.DeepEqual(done, JobKinds()) {
			t.Errorf("%s: completed stages %v, want each of %v once", j.Name, done, JobKinds())
		}
		if j.RecoveredFromCheckpoint != resumes {
			t.Errorf("%s: %d checkpoint recoveries, want %d", j.Name, j.RecoveredFromCheckpoint, resumes)
		}
		recovered += j.RecoveredFromCheckpoint
	}
	if recovered == 0 {
		t.Fatal("no revocation past the first stage; seed needs retuning")
	}
}
