package flow

import (
	"bytes"
	"context"
	"testing"

	"edacloud/internal/aig"
	"edacloud/internal/cloud"
	"edacloud/internal/designs"
	"edacloud/internal/synth"
)

// hierBase returns the base job the hierarchical tests split: a real
// multi-cone design with a synthesis-only pipeline, so every sub-job
// produces the optimized AIG stitching needs without paying for the
// physical stages.
func hierBase(t *testing.T) Job {
	t.Helper()
	return Job{
		Design:    designs.MustEvalDesign("aes", testScale),
		Lib:       lib,
		Options:   []Option{WithStages(Synthesis(synth.Options{}))},
		WorkScale: 2e4,
	}
}

// TestHierarchicalSplitShape: the split produces one job per
// partition, named in partition order, each carrying the sub-design
// graph and the base job's fleet parameters.
func TestHierarchicalSplitShape(t *testing.T) {
	base := hierBase(t)
	hb, err := Hierarchical(base, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(hb.Jobs) < 3 {
		t.Fatalf("grain 200 yields %d jobs; want real design-level parallelism", len(hb.Jobs))
	}
	if len(hb.Jobs) != hb.Parts.NumParts() || len(hb.Subs) != hb.Parts.NumParts() {
		t.Fatalf("split shape mismatch: %d jobs, %d subs, %d parts",
			len(hb.Jobs), len(hb.Subs), hb.Parts.NumParts())
	}
	for pi, j := range hb.Jobs {
		if j.Design != hb.Subs[pi].Graph {
			t.Fatalf("job %d does not carry sub-design %d", pi, pi)
		}
		if j.WorkScale != base.WorkScale || j.Lib != base.Lib {
			t.Fatalf("job %d dropped base parameters", pi)
		}
	}
	if _, err := Hierarchical(Job{}, 100); err == nil {
		t.Fatal("design-less base accepted")
	}
}

// TestHierarchicalStitchEquivalent: scheduling the sub-design jobs on
// a bounded fleet and stitching their optimized AIGs must reproduce
// the parent design's function under its name, and the stitched graph
// must be bit-identical at workers 1, 2 and 8.
func TestHierarchicalStitchEquivalent(t *testing.T) {
	base := hierBase(t)
	base.Plan = anyMachinePlan()
	hb, err := Hierarchical(base, 200)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *aig.Graph {
		fleet := boundedFleet(t, "gp.4x=1,mem.8x=1")
		sched, err := (&Scheduler{Workers: workers, Fleet: fleet}).Run(context.Background(), hb.Jobs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		stitched, err := hb.Stitch(sched.Jobs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return stitched
	}
	stitched := run(1)
	if !aig.SimEquiv(base.Design, stitched, 7, 16) {
		t.Fatal("stitched result not equivalent to the parent design")
	}
	if stitched.Name != base.Design.Name {
		t.Fatalf("stitched graph named %q, want %q", stitched.Name, base.Design.Name)
	}
	var want bytes.Buffer
	if err := stitched.WriteASCII(&want); err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		var got bytes.Buffer
		if err := run(w).WriteASCII(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("stitched graph differs at workers=%d", w)
		}
	}
}

// TestHierarchicalStitchRejectsBadResults: failed jobs, missing
// synthesis artifacts and interface-breaking rework are all refused.
func TestHierarchicalStitchRejectsBadResults(t *testing.T) {
	base := hierBase(t)
	hb, err := Hierarchical(base, 200)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hb.Stitch(nil); err == nil {
		t.Fatal("short result list accepted")
	}
	results := make([]JobResult, len(hb.Jobs))
	if _, err := hb.Stitch(results); err == nil {
		t.Fatal("results without runs accepted")
	}
}

// TestHierarchicalForecastExact: a forecast fed the executed stage
// runtimes must reproduce the hierarchical batch's schedule bit for
// bit — partitioned designs keep the plan/forecast contract intact.
func TestHierarchicalForecastExact(t *testing.T) {
	inst, err := cloud.DefaultCatalog().ByName("gp.4x")
	if err != nil {
		t.Fatal(err)
	}
	base := hierBase(t)
	base.Plan = StagePlan{JobSynthesis: inst}
	hb, err := Hierarchical(base, 200)
	if err != nil {
		t.Fatal(err)
	}
	fleet := boundedFleet(t, "gp.4x=2")
	sched, err := (&Scheduler{Fleet: fleet}).Run(context.Background(), hb.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	fjs := make([]ForecastJob, len(sched.Jobs))
	for i, j := range sched.Jobs {
		if j.Err != nil {
			t.Fatal(j.Err)
		}
		fj := ForecastJob{Name: j.Name}
		for _, st := range j.Stages {
			fj.Stages = append(fj.Stages, ForecastStage{Kind: st.Kind, Type: st.Type, Seconds: st.Seconds})
		}
		fjs[i] = fj
	}
	fc, err := Forecast(boundedFleet(t, "gp.4x=2"), fjs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sched.Jobs {
		got, want := fc.Jobs[i], sched.Jobs[i]
		if got.StartSec != want.StartSec || got.FinishSec != want.FinishSec ||
			got.WaitSec != want.WaitSec || got.CostUSD != want.CostUSD {
			t.Fatalf("job %s: forecast (%g,%g,%g,$%g) vs run (%g,%g,%g,$%g)",
				want.Name, got.StartSec, got.FinishSec, got.WaitSec, got.CostUSD,
				want.StartSec, want.FinishSec, want.WaitSec, want.CostUSD)
		}
	}
	if fc.TotalCostUSD != sched.TotalCostUSD || fc.MakespanSec != sched.MakespanSec {
		t.Fatalf("forecast aggregates ($%g, %gs) vs run ($%g, %gs)",
			fc.TotalCostUSD, fc.MakespanSec, sched.TotalCostUSD, sched.MakespanSec)
	}
}
