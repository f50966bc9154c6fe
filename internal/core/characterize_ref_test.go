package core

import (
	"reflect"
	"testing"

	"edacloud/internal/aig"
	"edacloud/internal/designs"
	"edacloud/internal/flow"
	"edacloud/internal/par"
	"edacloud/internal/perf"
	"edacloud/internal/place"
	"edacloud/internal/route"
	"edacloud/internal/synth"
)

// llcBlind returns the phase with the three last-level counters zeroed:
// what must not depend on the VM size.
func llcBlind(p perf.Phase) perf.Phase {
	p.C.LLCHits, p.C.LLCMisses, p.C.LLCPrefetched = 0, 0, 0
	return p
}

// TestProbeStreamIndependentOfVCPUs pins the premise the single
// characterization run rests on: a VM's vCPU count reaches the engines
// only as last-level cache capacity, so every phase of every stage
// records the same events, parallel fraction and chunk count at 1, 2, 4
// and 8 vCPUs — all but the LLC hit/miss/prefetch split. An engine
// decision or a shard count that read probe geometry would show here.
func TestProbeStreamIndependentOfVCPUs(t *testing.T) {
	names, recipes := designs.EvalDesignNames(), synth.StandardRecipes
	if testing.Short() {
		names, recipes = []string{"dyn_node", "ibex"}, recipes[4:6]
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			t.Parallel() // 8 designs x 8 recipes x 4 sizes of whole flows
			g, err := designs.EvalDesign(name, 0.02)
			if err != nil {
				t.Fatal(err)
			}
			for _, recipe := range recipes {
				vcpuBlind(t, g, recipe)
			}
		})
	}
}

func vcpuBlind(t *testing.T, g *aig.Graph, recipe synth.Recipe) {
	estCells := flow.EstimateCells(g.NumAnds())
	var want *flow.RunContext
	for _, v := range []int{1, 2, 4, 8} {
		rc, err := flow.NewPipeline(
			flow.WithRecipe(recipe),
			flow.WithNewProbe(func(flow.JobKind) *perf.Probe { return flow.NewJobProbe(v, estCells) }),
		).Run(g.Clone(), lib)
		if err != nil {
			t.Fatalf("%s at %d vCPUs: %v", recipe.Name, v, err)
		}
		if want == nil {
			want = rc
			continue
		}
		for _, k := range flow.JobKinds() {
			got, ref := rc.Reports[k].Phases, want.Reports[k].Phases
			if len(got) != len(ref) {
				t.Fatalf("%s %v at %d vCPUs: %d phases, 1 vCPU has %d", recipe.Name, k, v, len(got), len(ref))
			}
			for j := range ref {
				if llcBlind(got[j]) != llcBlind(ref[j]) {
					t.Errorf("%s %v phase %s reads the VM size:\n%d vCPUs %+v\n1 vCPU  %+v",
						recipe.Name, k, ref[j].Name, v, got[j], ref[j])
				}
			}
		}
	}
}

// refProfile is the loop this package ran before one run could model
// every VM size: the whole flow once per vCPU count, each under a probe
// of that size alone. It returns reports[vi][kind] and the netlist's
// cell count.
func refProfile(t *testing.T, g *aig.Graph, recipe synth.Recipe, vcpus []int) ([]map[flow.JobKind]*perf.Report, int) {
	t.Helper()
	estCells := flow.EstimateCells(g.NumAnds())
	var reports []map[flow.JobKind]*perf.Report
	cells := 0
	for _, v := range vcpus {
		rc, err := flow.NewPipeline(
			flow.WithRecipe(recipe),
			flow.WithNewProbe(func(flow.JobKind) *perf.Probe { return flow.NewJobProbe(v, estCells) }),
		).Run(g.Clone(), lib)
		if err != nil {
			t.Fatal(err)
		}
		reports, cells = append(reports, rc.Reports), rc.Netlist.NumCells()
	}
	return reports, cells
}

// refCharacterizeEval is CharacterizeEval over refProfile, arithmetic
// unchanged.
func refCharacterizeEval(t *testing.T, design string, opts CharacterizeOptions) *DesignCharacterization {
	t.Helper()
	opts = opts.withDefaults()
	g := designs.MustEvalDesign(design, opts.Scale)
	spec, _ := designs.EvalInfo(design)
	vcpus := []int{1, 2, 4, 8}
	reports, cells := refProfile(t, g, opts.Recipe, vcpus)
	out := &DesignCharacterization{Design: design, VCPUs: vcpus, Cells: cells, WorkScale: workScaleFor(spec.TargetInstances, cells)}
	base := make([]float64, len(flow.JobKinds()))
	for vi, v := range vcpus {
		var row []JobProfile
		for _, k := range flow.JobKinds() {
			report := reports[vi][k]
			c := report.Total()
			secs := machineFor(v, true, out.WorkScale).Seconds(report)
			if v == 1 {
				base[k] = secs
			}
			row = append(row, JobProfile{
				Kind: k, VCPUs: v, Report: report, Counters: c, Seconds: secs, Speedup: base[k] / secs,
				BranchMissPct: c.BranchMissPct(), CacheMissPct: c.CacheMissPct(), FPVectorPct: c.FPVectorPct(),
			})
		}
		out.Profiles = append(out.Profiles, row)
	}
	return out
}

// TestCharacterizeMatchesPerVCPURuns: the single run reproduces the
// per-vCPU loop exactly — reports, counters, seconds, speedups — for
// any worker count.
func TestCharacterizeMatchesPerVCPURuns(t *testing.T) {
	for _, tc := range []struct{ design, recipe string }{{"dyn_node", "resyn2"}, {"ibex", "resyn"}, {"aes", "raw"}} {
		opts := charOpts
		opts.Recipe, _ = synth.RecipeByName(tc.recipe)
		want := refCharacterizeEval(t, tc.design, opts)
		for _, w := range []int{1, 2, 8} {
			opts.Workers = w
			got, err := CharacterizeEval(lib, tc.design, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%s workers=%d: single run differs from the per-vCPU loop\n got %+v\nwant %+v", tc.design, tc.recipe, w, got, want)
			}
		}
	}
}

// TestBuildDatasetMatchesPerVCPURuns: every runtime label is bitwise
// the one the per-vCPU loop measured, for any worker count.
func TestBuildDatasetMatchesPerVCPURuns(t *testing.T) {
	opts := DatasetOptions{Benchmarks: []string{"adder", "dec"}, Recipes: synth.StandardRecipes[4:6], Scale: 0.06}
	vcpus := []int{1, 2, 4, 8}
	want := map[flow.JobKind][][]float64{}
	for _, bench := range opts.Benchmarks {
		for ri, recipe := range opts.Recipes {
			reports, _ := refProfile(t, designs.MustBenchmark(bench, opts.Scale), recipe, vcpus)
			for _, k := range flow.JobKinds() {
				if k == flow.JobSynthesis && ri > 0 {
					continue
				}
				var secs []float64
				for vi, v := range vcpus {
					secs = append(secs, machineFor(v, true, datasetWorkScale).Seconds(reports[vi][k]))
				}
				want[k] = append(want[k], secs)
			}
		}
	}
	for _, w := range []int{1, 2, 8} {
		opts.Workers = w
		ds, err := BuildDataset(lib, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range flow.JobKinds() {
			var got [][]float64
			for _, s := range ds.Jobs[k] {
				got = append(got, s.Runtimes)
			}
			if !reflect.DeepEqual(got, want[k]) {
				t.Fatalf("workers=%d %v: labels differ from the per-vCPU loop\n got %v\nwant %v", w, k, got, want[k])
			}
		}
	}
}

// TestRoutingSpeedupCurveMatchesPerVCPURuns: routing profiled once
// with a model per size gives the curve of routing profiled once per
// size (3 vCPUs realise 2's cache, 5–7 realise 4's).
func TestRoutingSpeedupCurveMatchesPerVCPURuns(t *testing.T) {
	opts := charOpts.withDefaults()
	g := designs.MustEvalDesign("ibex", opts.Scale)
	sres, err := synth.Synthesize(g, lib, synth.Options{Recipe: opts.Recipe})
	if err != nil {
		t.Fatal(err)
	}
	pl, _, err := place.Place(sres.Netlist, place.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want []float64
	for v := 1; v <= 8; v++ {
		probe := flow.NewJobProbe(v, sres.Netlist.NumCells())
		_, report, err := route.Route(sres.Netlist, pl, route.Options{StageConfig: par.StageConfig{Probe: probe}})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, machineFor(v, true, 1).Seconds(report))
	}
	for vi := len(want) - 1; vi >= 0; vi-- {
		want[vi] = want[0] / want[vi]
	}
	for _, w := range []int{1, 2, 8} {
		opts.Workers = w
		got, err := RoutingSpeedupCurve(lib, "ibex", opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: curve %v, per-vCPU loop %v", w, got, want)
		}
	}
}
