package flow

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"edacloud/internal/designs"
	"edacloud/internal/par"
	"edacloud/internal/perf"
	"edacloud/internal/place"
	"edacloud/internal/route"
	"edacloud/internal/sta"
	"edacloud/internal/synth"
	"edacloud/internal/techlib"
)

var lib = techlib.Default14nm()

const testScale = 0.02

// TestPipelineMatchesDirectEngineSequence: the pipeline must produce
// byte-identical artifacts and perf.Reports to the hand-wired
// synthesis -> placement -> routing -> sta sequence, on a seed
// design, instrumented and with bounded workers.
func TestPipelineMatchesDirectEngineSequence(t *testing.T) {
	g := designs.MustEvalDesign("dyn_node", testScale)
	recipe, err := synth.RecipeByName("resyn2")
	if err != nil {
		t.Fatal(err)
	}
	estCells := EstimateCells(g.NumAnds())
	probeFor := func() *perf.Probe { return NewJobProbe(4, estCells) }
	const workers = 2

	// The reference: each engine invoked directly, in flow order.
	sres, err := synth.Synthesize(g.Clone(), lib, synth.Options{
		Recipe:      recipe,
		StageConfig: par.StageConfig{Probe: probeFor(), Workers: workers},
	})
	if err != nil {
		t.Fatal(err)
	}
	pl, preport, err := place.Place(sres.Netlist, place.Options{
		StageConfig: par.StageConfig{Probe: probeFor(), Workers: workers},
	})
	if err != nil {
		t.Fatal(err)
	}
	rres, rreport, err := route.Route(sres.Netlist, pl, route.Options{
		StageConfig: par.StageConfig{Probe: probeFor()},
	})
	if err != nil {
		t.Fatal(err)
	}
	tres, treport, err := sta.Analyze(sres.Netlist, pl, sta.Options{
		StageConfig: par.StageConfig{Probe: probeFor(), Workers: workers},
	})
	if err != nil {
		t.Fatal(err)
	}

	p := NewPipeline(
		WithRecipe(recipe),
		WithWorkers(workers),
		WithNewProbe(func(JobKind) *perf.Probe { return probeFor() }),
	)
	rc, err := p.Run(g.Clone(), lib)
	if err != nil {
		t.Fatal(err)
	}

	if rc.Optimized.Stats() != sres.Optimized.Stats() {
		t.Errorf("optimized AIG differs: %v vs %v", rc.Optimized.Stats(), sres.Optimized.Stats())
	}
	if !reflect.DeepEqual(rc.Netlist, sres.Netlist) {
		t.Error("netlists differ")
	}
	if !reflect.DeepEqual(rc.Placement, pl) {
		t.Error("placements differ")
	}
	if !reflect.DeepEqual(rc.Routing, rres) {
		t.Error("routing results differ")
	}
	if !reflect.DeepEqual(rc.Timing, tres) {
		t.Error("timing results differ")
	}
	wantReports := map[JobKind]*perf.Report{
		JobSynthesis: sres.Report,
		JobPlacement: preport,
		JobRouting:   rreport,
		JobSTA:       treport,
	}
	for _, k := range JobKinds() {
		if !reflect.DeepEqual(rc.Reports[k], wantReports[k]) {
			t.Errorf("%v report differs", k)
		}
	}
}

// TestPartialFlowAndResume: a synthesis-only pipeline produces only
// synthesis artifacts; a physical-design pipeline then resumes from
// the seeded RunContext and matches a full-flow run exactly.
func TestPartialFlowAndResume(t *testing.T) {
	g := designs.MustEvalDesign("dyn_node", testScale)

	synthOnly := NewPipeline(WithStages(Synthesis(synth.Options{})))
	rc, err := synthOnly.Run(g.Clone(), lib)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Netlist == nil || rc.Optimized == nil {
		t.Fatal("synthesis-only flow produced no netlist")
	}
	if rc.Placement != nil || rc.Routing != nil || rc.Timing != nil {
		t.Fatal("partial flow ran stages it does not contain")
	}
	if len(rc.Reports) != 1 || rc.Reports[JobSynthesis] == nil {
		t.Fatalf("want exactly the synthesis report, got %d", len(rc.Reports))
	}

	// Resume physical design on the same artifact store.
	pd := NewPipeline(WithStages(
		Placement(place.Options{}),
		Routing(route.Options{}),
		STA(sta.Options{}),
	))
	rc2 := pd.NewRunContext(rc.Design, lib)
	rc2.Optimized, rc2.Netlist = rc.Optimized, rc.Netlist
	if err := pd.RunOn(rc2); err != nil {
		t.Fatal(err)
	}

	full, err := NewPipeline().Run(g.Clone(), lib)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rc2.Placement, full.Placement) ||
		!reflect.DeepEqual(rc2.Routing, full.Routing) ||
		!reflect.DeepEqual(rc2.Timing, full.Timing) {
		t.Fatal("resumed partial flow diverges from the full flow")
	}
}

// TestStagePrerequisites: physical stages fail cleanly without their
// upstream artifacts.
func TestStagePrerequisites(t *testing.T) {
	g := designs.MustEvalDesign("dyn_node", testScale)
	for _, stages := range [][]Stage{
		{Placement(place.Options{})},
		{Routing(route.Options{})},
		{STA(sta.Options{})},
		{Synthesis(synth.Options{}), Routing(route.Options{})},
	} {
		if _, err := NewPipeline(WithStages(stages...)).Run(g.Clone(), lib); err == nil {
			t.Errorf("stages %v accepted missing prerequisites", stages)
		}
	}
}

// countingStage wraps a stage and counts its runs — a custom stage.
type countingStage struct {
	Stage
	runs *int
}

func (s countingStage) Run(rc *RunContext) error {
	*s.runs++
	return s.Stage.Run(rc)
}

// TestStageSubstitution: a custom stage takes a built-in's place in an
// explicit stage list, and the stages after it run on its artifacts.
func TestStageSubstitution(t *testing.T) {
	g := designs.MustEvalDesign("dyn_node", testScale)
	runs := 0
	p := NewPipeline(WithStages(
		countingStage{Synthesis(synth.Options{}), &runs},
		Placement(place.Options{}),
		Routing(route.Options{}),
		STA(sta.Options{}),
	))
	rc, err := p.Run(g.Clone(), lib)
	if err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Fatalf("substituted stage ran %d times", runs)
	}
	if rc.Timing == nil {
		t.Fatal("downstream stages did not run after substitution")
	}
}

// TestCancellationMidFlow: cancelling the context while a stage runs
// stops the pipeline at the next stage boundary with context.Canceled,
// keeping completed artifacts.
func TestCancellationMidFlow(t *testing.T) {
	g := designs.MustEvalDesign("dyn_node", testScale)
	ctx, cancel := context.WithCancel(context.Background())
	p := NewPipeline(
		WithContext(ctx),
		WithEvents(func(e Event) {
			// Cancel while synthesis is still the active stage.
			if e.Type == StageStarted && e.Kind == JobSynthesis {
				cancel()
			}
		}),
	)
	rc, err := p.Run(g.Clone(), lib)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rc.Netlist == nil {
		t.Fatal("completed stage's artifacts were dropped")
	}
	if rc.Placement != nil || rc.Routing != nil || rc.Timing != nil {
		t.Fatal("stages ran after cancellation")
	}
}

// TestEventStream: events arrive in stage order, started-then-finished.
func TestEventStream(t *testing.T) {
	g := designs.MustEvalDesign("dyn_node", testScale)
	var got []Event
	p := NewPipeline(WithEvents(func(e Event) { got = append(got, e) }))
	if _, err := p.Run(g.Clone(), lib); err != nil {
		t.Fatal(err)
	}
	kinds := JobKinds()
	if len(got) != 2*len(kinds) {
		t.Fatalf("%d events, want %d", len(got), 2*len(kinds))
	}
	for i, k := range kinds {
		start, finish := got[2*i], got[2*i+1]
		if start.Type != StageStarted || start.Kind != k || start.Index != i || start.Total != len(kinds) {
			t.Fatalf("event %d = %+v, want start of %v", 2*i, start, k)
		}
		if finish.Type != StageFinished || finish.Kind != k || finish.Err != nil {
			t.Fatalf("event %d = %+v, want clean finish of %v", 2*i+1, finish, k)
		}
	}
}

func TestJobKindStrings(t *testing.T) {
	want := map[JobKind]string{
		JobSynthesis: "synthesis", JobPlacement: "placement",
		JobRouting: "routing", JobSTA: "sta",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if JobKind(9).String() == "" {
		t.Error("unknown kind has empty name")
	}
}
