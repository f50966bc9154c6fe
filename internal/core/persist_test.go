package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"edacloud/internal/cloud"
	"edacloud/internal/designs"
	"edacloud/internal/gcn"
	"edacloud/internal/synth"
)

func trainedPredictor(t *testing.T) (*Predictor, *Dataset) {
	t.Helper()
	ds, err := BuildDataset(lib, DatasetOptions{
		Benchmarks: []string{"adder", "dec", "priority"},
		Recipes:    synth.StandardRecipes[:2],
		Scale:      0.06,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := gcn.Config{Hidden1: 12, Hidden2: 6, FCHidden: 6, LR: 3e-3, Epochs: 20}
	pred, _, err := TrainPredictor(ds, cfg, 0.34, 2)
	if err != nil {
		t.Fatal(err)
	}
	return pred, ds
}

func TestPredictorPersistenceRoundTrip(t *testing.T) {
	pred, ds := trainedPredictor(t)
	var buf bytes.Buffer
	if err := pred.Save(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	back, err := ReadPredictor(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(back.VCPUs) != len(pred.VCPUs) {
		t.Fatalf("vcpus changed: %v", back.VCPUs)
	}
	// Predictions must be bit-identical after the round trip.
	g := ds.Jobs[JobRouting][0].Graph
	for _, k := range JobKinds() {
		gg := g
		if k == JobSynthesis {
			gg = ds.Jobs[JobSynthesis][0].Graph
		}
		a, err := pred.PredictRuntimes(k, gg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := back.PredictRuntimes(k, gg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: prediction changed: %v vs %v", k, a, b)
			}
		}
	}
	// The loaded predictor plugs straight into deployment planning.
	dg, err := GraphsForDesign(designs.MustBenchmark("cavlc", 0.06), lib)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildPredictedDeploymentProblem(back, dg, catalogForTest()); err != nil {
		t.Fatal(err)
	}
}

func TestReadPredictorRejectsCorruption(t *testing.T) {
	pred, _ := trainedPredictor(t)
	var buf bytes.Buffer
	if err := pred.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	cases := []string{
		"",
		"bogus\n",
		strings.Replace(good, predictorMagic, "wrong", 1),
		strings.Replace(good, "vcpus 1 2 4 8", "vcpus x", 1),
		strings.Replace(good, "job placement", "job bogus", 1),
		strings.Replace(good, "end-predictor\n", "", 1),
		good[:len(good)*2/3],
	}
	for i, src := range cases {
		if _, err := ReadPredictor(strings.NewReader(src)); err == nil {
			t.Errorf("corruption %d accepted", i)
		}
	}
	// Writing an incomplete predictor must fail rather than emit junk.
	incomplete := &Predictor{VCPUs: []int{1}}
	if err := incomplete.Save(&bytes.Buffer{}); err == nil {
		t.Fatal("incomplete predictor serialized")
	}
}

// catalogForTest avoids importing cloud twice in the test file header.
func catalogForTest() *cloud.Catalog { return cloud.DefaultCatalog() }

// TestTrainPredictorDeterministicAcrossWorkers: the four models train
// side by side and their kernels share the same pool, so the saved
// predictor and its held-out evaluation must be byte-identical at 8, 2
// and 1 workers. Eight goes first, on a dataset nothing has trained on:
// placement, routing and STA share their *gcn.Graph values, and that
// run is the one where three models ask for a graph's lazy successor
// layout at once (CI runs this under -race, -short included).
func TestTrainPredictorDeterministicAcrossWorkers(t *testing.T) {
	ds, err := BuildDataset(lib, DatasetOptions{
		Benchmarks: []string{"adder", "dec", "priority"},
		Recipes:    synth.StandardRecipes[:2],
		Scale:      0.06,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wide enough that the layer products cross mat's parallel threshold.
	cfg := gcn.Config{Hidden1: 48, Hidden2: 24, FCHidden: 8, LR: 3e-3, Epochs: 6}
	var wantBytes []byte
	var wantEval *PredictionEval
	for _, workers := range []int{8, 2, 1} {
		cfg.Workers = workers
		pred, eval, err := TrainPredictor(ds, cfg, 0.34, 2)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := pred.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if wantBytes == nil {
			wantBytes, wantEval = buf.Bytes(), eval
			continue
		}
		if !bytes.Equal(buf.Bytes(), wantBytes) {
			t.Fatalf("workers=%d: saved predictor differs from the 8-worker one", workers)
		}
		if !reflect.DeepEqual(eval, wantEval) {
			t.Fatalf("workers=%d: held-out evaluation differs from the 8-worker one", workers)
		}
	}

	// A kind with nothing to train on fails the call with that kind's
	// message — the first in kind order when several fail — however many
	// models were training next to it.
	broken := &Dataset{Jobs: map[JobKind][]LabeledGraph{}, VCPUs: ds.VCPUs, Designs: ds.Designs}
	broken.Jobs[JobSynthesis] = ds.Jobs[JobSynthesis]
	broken.Jobs[JobPlacement] = ds.Jobs[JobPlacement]
	for _, workers := range []int{1, 8} {
		cfg.Workers = workers
		_, _, err := TrainPredictor(broken, cfg, 0.34, 2)
		if err == nil || err.Error() != "core: no training samples for routing" {
			t.Fatalf("workers=%d: error %v, want the routing split's", workers, err)
		}
	}
}
