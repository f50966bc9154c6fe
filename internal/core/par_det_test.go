package core

import (
	"reflect"
	"runtime"
	"testing"

	"edacloud/internal/synth"
)

// TestCharacterizeDeterministicAcrossWorkers: the kernel pools inside
// the characterization's flow run must reproduce the one-worker run
// exactly — runtimes, counters and derived percentages.
func TestCharacterizeDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *DesignCharacterization {
		opts := charOpts
		opts.Workers = workers
		char, err := CharacterizeEval(lib, "dyn_node", opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return char
	}
	want := run(1)
	workers := []int{4}
	if runtime.GOMAXPROCS(0) > 1 {
		workers = append(workers, 0) // the GOMAXPROCS pool
	}
	for _, w := range workers {
		got := run(w)
		if got.Cells != want.Cells || got.WorkScale != want.WorkScale {
			t.Fatalf("workers=%d: cells/scale %d/%g, want %d/%g", w, got.Cells, got.WorkScale, want.Cells, want.WorkScale)
		}
		for vi := range want.Profiles {
			for ji := range want.Profiles[vi] {
				g, s := got.Profiles[vi][ji], want.Profiles[vi][ji]
				if g.Seconds != s.Seconds || g.Counters != s.Counters || g.Speedup != s.Speedup {
					t.Fatalf("workers=%d: profile[%d][%d] differs: %+v vs %+v", w, vi, ji, g, s)
				}
			}
		}
	}
}

// TestBuildDatasetDeterministicAcrossWorkers: fanning the per-
// (benchmark, recipe) flow runs out across cores must reproduce the
// serial dataset exactly — sample order, graphs and runtime labels.
func TestBuildDatasetDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *Dataset {
		ds, err := BuildDataset(lib, DatasetOptions{
			Benchmarks: []string{"adder", "dec"},
			Recipes:    synth.StandardRecipes[:2],
			Scale:      0.06,
			Workers:    workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return ds
	}
	want := run(1)
	for _, w := range []int{2, 8} {
		got := run(w)
		for _, k := range JobKinds() {
			if len(got.Jobs[k]) != len(want.Jobs[k]) {
				t.Fatalf("workers=%d: %v has %d samples, want %d", w, k, len(got.Jobs[k]), len(want.Jobs[k]))
			}
			for i := range want.Jobs[k] {
				g, s := got.Jobs[k][i], want.Jobs[k][i]
				if g.Design != s.Design || g.Variant != s.Variant {
					t.Fatalf("workers=%d: %v sample %d is %s/%s, want %s/%s", w, k, i, g.Design, g.Variant, s.Design, s.Variant)
				}
				if !reflect.DeepEqual(g.Runtimes, s.Runtimes) {
					t.Fatalf("workers=%d: %v %s/%s labels differ: %v vs %v", w, k, g.Design, g.Variant, g.Runtimes, s.Runtimes)
				}
				if !reflect.DeepEqual(g.Graph.X, s.Graph.X) {
					t.Fatalf("workers=%d: %v %s/%s graphs differ", w, k, g.Design, g.Variant)
				}
			}
		}
	}
}
