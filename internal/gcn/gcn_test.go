package gcn

import (
	"math"
	"testing"

	"edacloud/internal/designs"
	"edacloud/internal/mat"
	"edacloud/internal/netlist"
	"edacloud/internal/synth"
	"edacloud/internal/techlib"
)

var lib = techlib.Default14nm()

func tinyConfig() Config {
	return Config{Hidden1: 16, Hidden2: 8, FCHidden: 8, Outputs: 4, LR: 3e-3, Epochs: 60, Seed: 1}
}

func benchGraph(t *testing.T, name string, scale float64) *Graph {
	t.Helper()
	g := designs.MustBenchmark(name, scale)
	res, err := synth.Synthesize(g, lib, synth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return FromStarGraph(res.Netlist.StarGraph())
}

func TestFromStarGraphReversesEdges(t *testing.T) {
	// Build a 3-node chain by hand: 0 -> 1 -> 2.
	sg := &netlist.Graph{
		NumNodes: 3,
		Start:    []int32{0, 1, 2, 2},
		Succ:     []int32{1, 2},
		Features: [][]float64{{1, 0}, {0, 1}, {1, 1}},
	}
	g := FromStarGraph(sg)
	if g.X.Rows != 3 || g.X.Cols != 2 {
		t.Fatalf("features %dx%d", g.X.Rows, g.X.Cols)
	}
	// Node 0 has no predecessors; node 1 has {0}; node 2 has {1}.
	if g.PredStart[1]-g.PredStart[0] != 0 {
		t.Fatal("node 0 should have no predecessors")
	}
	if g.Pred[g.PredStart[1]] != 0 || g.Pred[g.PredStart[2]] != 1 {
		t.Fatalf("predecessors wrong: %v / %v", g.Pred, g.PredStart)
	}
}

func TestAggregateMean(t *testing.T) {
	sg := &netlist.Graph{
		NumNodes: 3,
		Start:    []int32{0, 1, 2, 2},
		Succ:     []int32{2, 2}, // 0->2, 1->2
		Features: [][]float64{{2}, {4}, {0}},
	}
	g := FromStarGraph(sg)
	out := mat.New(3, 1)
	g.aggregate(nil, g.X, out)
	if out.At(2, 0) != 3 { // mean of 2 and 4
		t.Fatalf("aggregate = %g, want 3", out.At(2, 0))
	}
	if out.At(0, 0) != 0 || out.At(1, 0) != 0 {
		t.Fatal("source nodes should aggregate zero")
	}
}

func TestAggregateBackScattersEvenly(t *testing.T) {
	sg := &netlist.Graph{
		NumNodes: 3,
		Start:    []int32{0, 1, 2, 2},
		Succ:     []int32{2, 2},
		Features: [][]float64{{0}, {0}, {0}},
	}
	g := FromStarGraph(sg)
	dAgg := mat.FromRows([][]float64{{0}, {0}, {6}})
	dH := mat.New(3, 1)
	g.aggregateBack(nil, dAgg, dH)
	if dH.At(0, 0) != 3 || dH.At(1, 0) != 3 {
		t.Fatalf("backward scatter wrong: %v", dH.Data)
	}
}

// Numerical gradient check on a tiny model and graph.
func TestGradientsMatchNumerical(t *testing.T) {
	cfg := Config{Hidden1: 4, Hidden2: 3, FCHidden: 3, Outputs: 2, LR: 1e-3, Epochs: 1, Seed: 5}
	sg := &netlist.Graph{
		NumNodes: 4,
		Start:    []int32{0, 2, 3, 4, 4},
		Succ:     []int32{1, 2, 3, 3},
		Features: [][]float64{{1, 0.5}, {0.2, -1}, {-0.4, 0.8}, {0.9, 0.1}},
	}
	g := FromStarGraph(sg)
	m := NewModel(cfg, 2)
	target := []float64{0.3, -0.7}

	lossAt := func() float64 {
		st := m.forward(g, nil, true)
		var l float64
		for j, v := range st.out.Data {
			d := v - target[j]
			l += d * d / float64(len(target))
		}
		return l
	}

	gr := m.newGrads()
	st := m.forward(g, nil, true)
	m.backward(st, target, gr, nil)

	check := func(name string, p, dp *mat.Dense) {
		const eps = 1e-6
		for _, idx := range []int{0, len(p.Data) / 2, len(p.Data) - 1} {
			orig := p.Data[idx]
			p.Data[idx] = orig + eps
			up := lossAt()
			p.Data[idx] = orig - eps
			down := lossAt()
			p.Data[idx] = orig
			num := (up - down) / (2 * eps)
			got := dp.Data[idx]
			if math.Abs(num-got) > 1e-4*(1+math.Abs(num)) {
				t.Errorf("%s[%d]: analytic %g vs numeric %g", name, idx, got, num)
			}
		}
	}
	check("W1", m.W1, gr.dW1)
	check("B1", m.B1, gr.dB1)
	check("W2", m.W2, gr.dW2)
	check("B2", m.B2, gr.dB2)
	check("FW", m.FW, gr.dFW)
	check("FBias", m.FBias, gr.dFBias)
	check("OW", m.OW, gr.dOW)
	check("OBias", m.OBias, gr.dOBias)
}

func TestTrainingReducesLoss(t *testing.T) {
	names := []string{"adder", "priority", "int2float", "cavlc", "dec"}
	var samples []Sample
	for i, n := range names {
		g := benchGraph(t, n, 0.1)
		// Synthetic but structured targets: a function of graph size.
		size := float64(g.X.Rows)
		samples = append(samples, Sample{
			Name: n,
			G:    g,
			Targets: []float64{
				size / 100, size / 150, size / 220, size / 300,
			},
		})
		_ = i
	}
	m := NewModel(tinyConfig(), netlist.FeatureDim)
	before := m.Loss(samples)
	stats, err := m.Train(samples)
	if err != nil {
		t.Fatal(err)
	}
	after := m.Loss(samples)
	if after >= before {
		t.Fatalf("training did not reduce loss: %g -> %g", before, after)
	}
	if stats.FinalLoss > stats.LossCurve[0] {
		t.Fatalf("loss curve rising: %v", stats.LossCurve[:3])
	}
	if len(stats.LossCurve) != tinyConfig().Epochs {
		t.Fatalf("epochs = %d", len(stats.LossCurve))
	}
}

func TestTrainValidation(t *testing.T) {
	m := NewModel(tinyConfig(), netlist.FeatureDim)
	if _, err := m.Train(nil); err == nil {
		t.Fatal("empty training set accepted")
	}
	g := benchGraph(t, "dec", 0.1)
	if _, err := m.Train([]Sample{{G: g, Targets: []float64{1}}}); err == nil {
		t.Fatal("wrong target width accepted")
	}
	bad := &Graph{X: mat.New(3, 2), PredStart: make([]int32, 4)}
	if _, err := m.Train([]Sample{{G: bad, Targets: []float64{1, 2, 3, 4}}}); err == nil {
		t.Fatal("wrong feature width accepted")
	}
	// A negative epoch count trained nothing and reported success.
	cfg := tinyConfig()
	cfg.Epochs = -3
	stats, err := NewModel(cfg, netlist.FeatureDim).Train([]Sample{{G: g, Targets: []float64{1, 2, 3, 4}}})
	if err == nil {
		t.Fatalf("Epochs -3 accepted: %+v", stats)
	}
}

func TestPredictDeterministic(t *testing.T) {
	g := benchGraph(t, "priority", 0.1)
	m := NewModel(tinyConfig(), netlist.FeatureDim)
	a := m.Predict(g)
	b := m.Predict(g)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("prediction not deterministic")
		}
	}
	if len(a) != 4 {
		t.Fatalf("got %d outputs", len(a))
	}
}

func TestTargetScalerRoundTrip(t *testing.T) {
	targets := [][]float64{
		{100, 80, 60, 50},
		{2000, 1500, 900, 700},
		{10, 9, 8, 7},
	}
	sc := FitScaler(targets)
	for _, tg := range targets {
		back := sc.Invert(sc.Transform(tg))
		for j := range tg {
			if math.Abs(back[j]-tg[j]) > 1e-6*tg[j] {
				t.Fatalf("round trip %v -> %v", tg, back)
			}
		}
	}
	// Normalized values must be z-scored: mean near 0 across samples.
	var mean float64
	for _, tg := range targets {
		mean += sc.Transform(tg)[0]
	}
	if math.Abs(mean/3) > 1e-9 {
		t.Fatalf("normalized mean %g", mean/3)
	}
	if FitScaler(nil).Mean != nil {
		t.Fatal("empty scaler should have no stats")
	}
}

func TestConfigDefaultsArePaperValues(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Hidden1 != 256 || c.Hidden2 != 128 || c.FCHidden != 128 {
		t.Fatalf("defaults %+v not the paper's architecture", c)
	}
	if c.Outputs != 4 || c.LR != 1e-4 || c.Epochs != 200 {
		t.Fatalf("defaults %+v not the paper's training recipe", c)
	}
}

func TestConfigCheck(t *testing.T) {
	if err := (Config{}).Check(); err != nil {
		t.Errorf("zero config refused: %v", err)
	}
	if err := tinyConfig().Check(); err != nil {
		t.Errorf("tiny config refused: %v", err)
	}
	for _, c := range []Config{
		{Hidden1: -1}, {Hidden2: -1}, {FCHidden: -3}, {Outputs: -4},
		{LR: -1}, {LR: math.NaN()}, {LR: math.Inf(1)}, {LR: math.Inf(-1)},
		{Epochs: -3}, {Epochs: -1},
	} {
		if err := c.Check(); err == nil {
			t.Errorf("%+v accepted", c)
		}
	}
}

func TestModelLearnsSizeSignal(t *testing.T) {
	// Train on graphs of different sizes with size-proportional
	// targets; the model must rank a large unseen graph above a small
	// one (the core premise of the paper's predictor).
	train := []string{"adder", "dec", "cavlc", "int2float", "bar", "sin"}
	var samples []Sample
	var targets [][]float64
	for _, n := range train {
		g := benchGraph(t, n, 0.12)
		size := float64(g.X.Rows)
		targets = append(targets, []float64{size, size / 2, size / 3.5, size / 5})
		samples = append(samples, Sample{Name: n, G: g})
	}
	sc := FitScaler(targets)
	for i := range samples {
		samples[i].Targets = sc.Transform(targets[i])
	}
	cfg := tinyConfig()
	cfg.Epochs = 150
	m := NewModel(cfg, netlist.FeatureDim)
	if _, err := m.Train(samples); err != nil {
		t.Fatal(err)
	}
	small := benchGraph(t, "priority", 0.08)
	big := benchGraph(t, "mem_ctrl", 0.15)
	ps := sc.Invert(m.Predict(small))
	pb := sc.Invert(m.Predict(big))
	if pb[0] <= ps[0] {
		t.Fatalf("model did not learn size: big=%g small=%g", pb[0], ps[0])
	}
}
