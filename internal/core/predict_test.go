package core

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"edacloud/internal/flow"
	"edacloud/internal/gcn"
	"edacloud/internal/mat"
	"edacloud/internal/synth"
)

// predictorBits flattens a trained predictor, in kind order, into the
// shape and IEEE-754 bits of every weight matrix and every scaler
// statistic: two predictors with equal bits predict identically.
func predictorBits(p *Predictor) []uint64 {
	var out []uint64
	floats := func(xs []float64) {
		out = append(out, uint64(len(xs)))
		for _, x := range xs {
			out = append(out, math.Float64bits(x))
		}
	}
	for _, k := range flow.JobKinds() {
		m, s := p.Models[k], p.Scalers[k]
		for _, d := range []*mat.Dense{m.W1, m.B1, m.W2, m.B2, m.FW, m.FBias, m.OW, m.OBias} {
			out = append(out, uint64(d.Rows), uint64(d.Cols))
			floats(d.Data)
		}
		floats(s.Mean)
		floats(s.Std)
	}
	return out
}

// TestTrainPredictorDeterministicAcrossWorkers: the four models train
// side by side and their kernels share the same pool, so the trained
// predictor's every weight and scaler statistic, and its held-out
// evaluation, must be bit-identical at 8, 2 and 1 workers. Eight goes
// first, on a dataset nothing has trained on: placement, routing and
// STA share their *gcn.Graph values, and that run is the one where
// three models ask for a graph's lazy successor layout at once (CI runs
// this under -race, -short included).
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
	var wantBits []uint64
	var wantEval *PredictionEval
	for _, workers := range []int{8, 2, 1} {
		cfg.Workers = workers
		pred, eval, err := TrainPredictor(ds, cfg, 0.34, 2)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		bits := predictorBits(pred)
		if wantBits == nil {
			wantBits, wantEval = bits, eval
			continue
		}
		if !slices.Equal(bits, wantBits) {
			t.Fatalf("workers=%d: trained predictor differs from the 8-worker one", workers)
		}
		if !reflect.DeepEqual(eval, wantEval) {
			t.Fatalf("workers=%d: held-out evaluation differs from the 8-worker one", workers)
		}
	}

	// A kind with nothing to train on fails the call with that kind's
	// message — the first in kind order when several fail — however many
	// models were training next to it.
	broken := &Dataset{Jobs: map[flow.JobKind][]LabeledGraph{}, VCPUs: ds.VCPUs, Designs: ds.Designs}
	broken.Jobs[flow.JobSynthesis] = ds.Jobs[flow.JobSynthesis]
	broken.Jobs[flow.JobPlacement] = ds.Jobs[flow.JobPlacement]
	for _, workers := range []int{1, 8} {
		cfg.Workers = workers
		_, _, err := TrainPredictor(broken, cfg, 0.34, 2)
		if err == nil || err.Error() != "core: no training samples for routing" {
			t.Fatalf("workers=%d: error %v, want the routing split's", workers, err)
		}
	}
}

// TestTrainPredictorRejectsBadConfig: a negative layer width or a
// negative or non-finite learning rate is refused before any model is
// built (a negative width used to panic in mat).
func TestTrainPredictorRejectsBadConfig(t *testing.T) {
	ds := &Dataset{Jobs: map[flow.JobKind][]LabeledGraph{}, VCPUs: []int{1}, Designs: []string{"a", "b"}}
	for _, cfg := range []gcn.Config{
		{Hidden1: -1}, {Hidden2: -2}, {FCHidden: -3},
		{LR: -1}, {LR: math.NaN()}, {LR: math.Inf(1)},
	} {
		cfg.Epochs = 1
		_, _, err := TrainPredictor(ds, cfg, 0.5, 1)
		if err == nil || !strings.Contains(err.Error(), "gcn: ") {
			t.Errorf("%+v: error %v, want the config refused", cfg, err)
		}
	}
}

// TestHistogramSkipsNonFiniteErrors: a diverged model's infinite and
// NaN errors get no bin (one used to index bin -2^63); the finite ones
// are bucketed as if the others were absent.
func TestHistogramSkipsNonFiniteErrors(t *testing.T) {
	finite := &JobEval{Records: []ErrRecord{{Pred: []float64{1, 2, 5}, Actual: []float64{0, 0, 0}}}}
	mixed := &JobEval{Records: []ErrRecord{
		{Pred: []float64{1, math.Inf(1), 2}, Actual: []float64{0, 0, 0}},
		{Pred: []float64{math.NaN(), 5, math.Inf(-1)}, Actual: []float64{0, 0, 0}},
	}}
	wantEdges, wantCounts := finite.Histogram(4)
	edges, counts := mixed.Histogram(4)
	if !slices.Equal(edges, wantEdges) || !slices.Equal(counts, wantCounts) {
		t.Errorf("with non-finite errors: edges %v counts %v, want %v %v", edges, counts, wantEdges, wantCounts)
	}
	allBad := &JobEval{Records: []ErrRecord{{Pred: []float64{math.NaN(), math.Inf(1)}, Actual: []float64{0, 0}}}}
	if edges, counts := allBad.Histogram(4); edges != nil || counts != nil {
		t.Errorf("no finite error: edges %v counts %v, want none", edges, counts)
	}
	// Finite errors whose span overflows a float64 still land in bins.
	wide := &JobEval{Records: []ErrRecord{{Pred: []float64{-math.MaxFloat64, 0, math.MaxFloat64}, Actual: []float64{0, 0, 0}}}}
	if _, counts := wide.Histogram(4); counts[0]+counts[1]+counts[2]+counts[3] != 3 {
		t.Errorf("overflowing span: counts %v, want all three errors bucketed", counts)
	}
}

// TestTrainPredictorRejectsTestFraction: a held-out fraction outside
// [0, 1) is an error, not a slice-bounds panic inside a training worker.
func TestTrainPredictorRejectsTestFraction(t *testing.T) {
	ds := &Dataset{
		Jobs:    map[flow.JobKind][]LabeledGraph{},
		VCPUs:   []int{1},
		Designs: []string{"a", "b", "c"},
	}
	for _, frac := range []float64{1, 1.5, -0.1, math.NaN(), math.Inf(1)} {
		_, _, err := TrainPredictor(ds, gcn.Config{Epochs: 1}, frac, 1)
		if err == nil || !strings.Contains(err.Error(), "held-out fraction") {
			t.Errorf("fraction %v: error %v, want a held-out fraction refusal", frac, err)
		}
	}
}
