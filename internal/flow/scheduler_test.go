package flow

import (
	"context"
	"math"
	"reflect"
	"testing"

	"edacloud/internal/cloud"
	"edacloud/internal/designs"
	"edacloud/internal/synth"
)

func batchJobs(t *testing.T) []Job {
	t.Helper()
	catalog := cloud.DefaultCatalog()
	var jobs []Job
	for i, spec := range []struct {
		design string
		family cloud.Family
		vcpus  int
	}{
		{"dyn_node", cloud.MemoryOptimized, 8},
		{"aes", cloud.GeneralPurpose, 4},
		{"ibex", cloud.MemoryOptimized, 2},
		{"ibex", cloud.ComputeOptimized, 8},
		{"aes", cloud.GeneralPurpose, 1},
	} {
		inst, err := catalog.Size(spec.family, spec.vcpus)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, Job{
			Name:      spec.design,
			Design:    designs.MustEvalDesign(spec.design, testScale),
			Lib:       lib,
			Instance:  inst,
			WorkScale: 2e4,
			// Exercise both deadline outcomes without depending on
			// absolute magnitudes more than coarsely.
			DeadlineSec: float64(20 * (i + 1)),
		})
	}
	return jobs
}

// TestSchedulerDeterministicAcrossWorkers: the aggregate cost,
// makespan and every per-job runtime must be identical at any worker
// count — the scheduler analogue of the engines' determinism tests.
func TestSchedulerDeterministicAcrossWorkers(t *testing.T) {
	jobs := batchJobs(t)
	run := func(workers int) *Schedule {
		sched, err := (&Scheduler{Workers: workers}).Run(context.Background(), jobs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return sched
	}
	want := run(1)
	if want.Failed != 0 {
		for _, j := range want.Jobs {
			if j.Err != nil {
				t.Fatalf("job %s failed: %v", j.Name, j.Err)
			}
		}
	}
	for _, w := range []int{2, 8} {
		got := run(w)
		if got.TotalCostUSD != want.TotalCostUSD ||
			got.TotalCPUSeconds != want.TotalCPUSeconds ||
			got.MakespanSec != want.MakespanSec ||
			got.DeadlinesMissed != want.DeadlinesMissed {
			t.Fatalf("workers=%d: aggregates differ: %+v vs %+v", w, got, want)
		}
		for i := range want.Jobs {
			g, s := got.Jobs[i], want.Jobs[i]
			if g.Name != s.Name || g.Seconds != s.Seconds || g.CostUSD != s.CostUSD || g.DeadlineMet != s.DeadlineMet {
				t.Fatalf("workers=%d: job %d differs: %+v vs %+v", w, i, g, s)
			}
			if !reflect.DeepEqual(g.Run.Timing, s.Run.Timing) {
				t.Fatalf("workers=%d: job %d artifacts differ", w, i)
			}
		}
	}
}

// TestSchedulerCostsAndDeadlines: per-job bills follow the instance's
// per-second pricing, aggregates fold consistently, and deadline
// bookkeeping matches the runtimes.
func TestSchedulerCostsAndDeadlines(t *testing.T) {
	jobs := batchJobs(t)
	sched, err := (&Scheduler{}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Jobs) != len(jobs) {
		t.Fatalf("%d results for %d jobs", len(sched.Jobs), len(jobs))
	}
	var cost, secs, makespan float64
	missed := 0
	for i, j := range sched.Jobs {
		if j.Err != nil {
			t.Fatalf("job %s: %v", j.Name, j.Err)
		}
		if j.Seconds <= 0 {
			t.Fatalf("job %s: non-positive runtime", j.Name)
		}
		if want := j.Instance.Cost(j.Seconds); j.CostUSD != want {
			t.Fatalf("job %s: cost %g, want %g", j.Name, j.CostUSD, want)
		}
		if met := j.Seconds <= jobs[i].DeadlineSec; met != j.DeadlineMet {
			t.Fatalf("job %s: deadline %gs, runtime %gs, met=%v", j.Name, jobs[i].DeadlineSec, j.Seconds, j.DeadlineMet)
		}
		cost += j.CostUSD
		secs += j.Seconds
		makespan = math.Max(makespan, j.Seconds)
		if !j.DeadlineMet {
			missed++
		}
	}
	if sched.TotalCostUSD != cost || sched.TotalCPUSeconds != secs ||
		sched.MakespanSec != makespan || sched.DeadlinesMissed != missed {
		t.Fatalf("aggregates inconsistent: %+v", sched)
	}
	// The same design on a smaller instance must run longer: the
	// paper's whole premise that vCPU count is a price/runtime knob.
	var ibex2, ibex8 float64
	for _, j := range sched.Jobs {
		if j.Name != "ibex" {
			continue
		}
		switch j.Instance.VCPUs {
		case 2:
			ibex2 = j.Seconds
		case 8:
			ibex8 = j.Seconds
		}
	}
	if ibex8 >= ibex2 {
		t.Fatalf("8-vCPU run (%gs) not faster than 2-vCPU run (%gs)", ibex8, ibex2)
	}
}

// TestSchedulerPartialFlowJobs: jobs may carry their own pipeline
// options, e.g. a synthesis-only flow, and still get priced.
func TestSchedulerPartialFlowJobs(t *testing.T) {
	inst, err := cloud.DefaultCatalog().Size(cloud.GeneralPurpose, 4)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{{
		Name:      "synth-only",
		Design:    designs.MustEvalDesign("dyn_node", testScale),
		Lib:       lib,
		Options:   []Option{WithStages(Synthesis(synth.Options{}))},
		Instance:  inst,
		WorkScale: 2e4,
	}}
	sched, err := (&Scheduler{}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	j := sched.Jobs[0]
	if j.Err != nil {
		t.Fatal(j.Err)
	}
	if j.Run.Netlist == nil || j.Run.Timing != nil {
		t.Fatal("partial-flow job ran the wrong stages")
	}
	if j.Seconds <= 0 || j.CostUSD <= 0 {
		t.Fatalf("partial-flow job not priced: %+v", j)
	}
	if !j.DeadlineMet {
		t.Fatal("deadline-free job marked missed")
	}
}

// TestSchedulerFailures: invalid jobs and cancelled contexts are
// reported per job and in the aggregates without aborting the batch.
func TestSchedulerFailures(t *testing.T) {
	good := Job{
		Name:   "good",
		Design: designs.MustEvalDesign("dyn_node", testScale),
		Lib:    lib,
	}
	sched, err := (&Scheduler{}).Run(context.Background(), []Job{good, {Name: "no-design", Lib: lib}})
	if err != nil {
		t.Fatal(err)
	}
	if sched.Failed != 1 || sched.Jobs[1].Err == nil || sched.Jobs[0].Err != nil {
		t.Fatalf("failure bookkeeping wrong: %+v", sched)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sched, err = (&Scheduler{Workers: 1}).Run(ctx, []Job{good, good})
	if err == nil {
		t.Fatal("cancelled context not reported")
	}
	if sched.Failed != len(sched.Jobs) {
		t.Fatalf("cancelled jobs not failed: %+v", sched)
	}
}

// oddStage is a custom stage whose kind is not one of JobKinds.
type oddStage struct{}

func (oddStage) Name() string          { return "odd" }
func (oddStage) Kind() JobKind         { return JobKind(numKinds) }
func (oddStage) Run(*RunContext) error { return nil }

// TestSchedulerRefusesUnknownStageKind: the scheduler keeps one
// request per kind of JobKinds, so a job with a stage of any other
// kind fails before its pipeline runs.
func TestSchedulerRefusesUnknownStageKind(t *testing.T) {
	job := batchJobs(t)[0]
	job.Options = []Option{WithStages(Synthesis(synth.Options{}), oddStage{})}
	sched, err := (&Scheduler{}).Run(context.Background(), []Job{job})
	if err != nil {
		t.Fatal(err)
	}
	if sched.Failed != 1 || sched.Jobs[0].Err == nil || sched.Jobs[0].Run != nil {
		t.Fatalf("job with an unknown stage kind: failed=%d err=%v", sched.Failed, sched.Jobs[0].Err)
	}
}
