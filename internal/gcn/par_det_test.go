package gcn

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"edacloud/internal/mat"
	"edacloud/internal/par"
)

// randomDAGGraph builds a synthetic layered DAG sample large enough to
// push the matrix kernels over their parallel thresholds.
func randomDAGGraph(rng *rand.Rand, nodes, inDim int) *Graph {
	x := mat.New(nodes, inDim)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	predStart := make([]int32, nodes+1)
	var pred []int32
	for v := 0; v < nodes; v++ {
		predStart[v] = int32(len(pred))
		deg := rng.Intn(3)
		for e := 0; e < deg && v > 0; e++ {
			pred = append(pred, int32(rng.Intn(v)))
		}
	}
	predStart[nodes] = int32(len(pred))
	return &Graph{X: x, PredStart: predStart, Pred: pred}
}

// TestAggregateBackForwardCSRDeterministic: the row-parallel gather
// over the forward (successor) CSR must be bit-identical to the
// original edge-wise serial scatter, at 1, 2 and 8 workers.
func TestAggregateBackForwardCSRDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const nodes, cols = 700, 24
	g := randomDAGGraph(rng, nodes, 4)
	dAgg := mat.New(nodes, cols)
	for i := range dAgg.Data {
		dAgg.Data[i] = rng.NormFloat64()
	}
	seed := mat.New(nodes, cols)
	for i := range seed.Data {
		seed.Data[i] = rng.NormFloat64()
	}

	// Reference: the pre-refactor scatter — for each edge u->v,
	// dH[u] += dAgg[v]/indeg(v), nodes swept in v order.
	want := mat.New(nodes, cols)
	copy(want.Data, seed.Data)
	for v := 0; v < nodes; v++ {
		lo, hi := g.PredStart[v], g.PredStart[v+1]
		if lo == hi {
			continue
		}
		inv := 1 / float64(hi-lo)
		aRow := dAgg.Row(v)
		for _, u := range g.Pred[lo:hi] {
			uRow := want.Row(int(u))
			for j, av := range aRow {
				uRow[j] += av * inv
			}
		}
	}

	for _, w := range []int{1, 2, 8} {
		got := mat.New(nodes, cols)
		copy(got.Data, seed.Data)
		g.aggregateBack(par.Fixed(w), dAgg, got)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("workers=%d: element %d = %x, want %x", w, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestTrainDeterministicAcrossWorkers: training loss and learned
// weights must be bit-identical at 1, 2 and 8 workers — the pooled
// matmuls and aggregation never reassociate a row's accumulation.
func TestTrainDeterministicAcrossWorkers(t *testing.T) {
	const inDim = 12
	run := func(workers int) (float64, []float64, []float64) {
		samples := trainSamples(99, inDim, 400, 500, 600, 700)
		m := NewModel(Config{Hidden1: 64, Hidden2: 32, FCHidden: 16, Epochs: 4, LR: 1e-3, Seed: 3, Workers: workers}, inDim)
		stats, err := m.Train(samples)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return stats.FinalLoss, append([]float64(nil), m.W1.Data...), append([]float64(nil), m.OW.Data...)
	}
	wantLoss, wantW1, wantOW := run(1)
	for _, w := range []int{2, 8} {
		loss, w1, ow := run(w)
		if loss != wantLoss {
			t.Fatalf("workers=%d: final loss %x, want %x", w, loss, wantLoss)
		}
		for i := range wantW1 {
			if w1[i] != wantW1[i] {
				t.Fatalf("workers=%d: W1[%d] differs", w, i)
			}
		}
		for i := range wantOW {
			if ow[i] != wantOW[i] {
				t.Fatalf("workers=%d: OW[%d] differs", w, i)
			}
		}
	}
}

// trainSamples builds samples of the given node counts, in that order.
func trainSamples(seed int64, inDim int, nodes ...int) []Sample {
	rng := rand.New(rand.NewSource(seed))
	var samples []Sample
	for _, n := range nodes {
		samples = append(samples, Sample{
			Name:    "g",
			G:       randomDAGGraph(rng, n, inDim),
			Targets: []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()},
		})
	}
	return samples
}

// TestTrainArenaMatchesFreshAllocation: a run on the training arena —
// dirty, reused storage that has to grow mid-run because the samples go
// small, large, small — must end with exactly the weights and loss
// curve of the same run with every matrix freshly allocated and zeroed.
func TestTrainArenaMatchesFreshAllocation(t *testing.T) {
	const inDim = 12
	cfg := Config{Hidden1: 24, Hidden2: 10, FCHidden: 7, Epochs: 3, LR: 1e-3, Seed: 3, Workers: 2}
	// Seed+7 shuffles; the sizes differ enough that every order of them
	// makes the slab grow at least once after the first step.
	samples := trainSamples(17, inDim, 30, 45, 400, 35, 650, 20)
	run := func(ar *arena) (*Model, TrainStats) {
		m := NewModel(cfg, inDim)
		stats, err := m.train(samples, ar)
		if err != nil {
			t.Fatal(err)
		}
		return m, stats
	}
	ar := &arena{}
	got, gotStats := run(ar)
	want, wantStats := run(nil)
	for e := range wantStats.LossCurve {
		if gotStats.LossCurve[e] != wantStats.LossCurve[e] {
			t.Fatalf("epoch %d: loss %x on the arena, %x freshly allocated", e, gotStats.LossCurve[e], wantStats.LossCurve[e])
		}
	}
	for i, p := range want.params() {
		for j, v := range p.Data {
			if got.params()[i].Data[j] != v {
				t.Fatalf("param %d element %d: %x on the arena, %x freshly allocated", i, j, got.params()[i].Data[j], v)
			}
		}
	}
	// The slab ends at what the largest sample needs, no more: a step on
	// it fits (nothing spilled: off == need) and fills it exactly.
	big := samples[4]
	ar.reset()
	st := got.forward(big.G, ar, true)
	got.backward(st, big.Targets, got.newGrads(), ar)
	if ar.off != ar.need || ar.off != len(ar.buf) {
		t.Fatalf("largest sample carved %d floats, needed %d, slab holds %d", ar.off, ar.need, len(ar.buf))
	}
}

// TestPredictSlabIsRightSized: forwardFloats is exactly what an
// inference forward carves, so Predict's one slab neither spills nor
// wastes.
func TestPredictSlabIsRightSized(t *testing.T) {
	const inDim = 5
	m := NewModel(Config{Hidden1: 9, Hidden2: 6, FCHidden: 7, Outputs: 3, Seed: 1}, inDim)
	for _, n := range []int{1, 37, 300} {
		g := randomDAGGraph(rand.New(rand.NewSource(int64(n))), n, inDim)
		ar := &arena{buf: make([]float64, m.forwardFloats(n))}
		m.forward(g, ar, false)
		if ar.off != ar.need || ar.off != len(ar.buf) {
			t.Fatalf("n=%d: forward carved %d floats, needed %d, forwardFloats says %d", n, ar.off, ar.need, len(ar.buf))
		}
	}
}

// TestTrainAllocBudget: what one sample-step allocates must not depend
// on the graph — no per-step matrix. Bytes and mallocs per step are the
// difference between a 6-epoch and a 2-epoch Train of the same samples
// (which cancels the model, the gradient set and the growth of the slab
// in the first epoch), at GOMAXPROCS 1, 2 and 8, with the collector off
// so that it does not empty the runtime's own caches mid-count. All
// that is left is the closures par.For hands to the workers it recruits
// for some twenty kernel calls: 0.1 KB in 3 mallocs per step on one
// worker, 1.4 KB in 53 on two, 1.7 KB in 95 on eight — plus, on eight,
// up to 1.5 KB per step of thread start-up whenever the runtime first
// needs its new Ps inside the longer run. The budgets are 25 % over
// that; before the arena a step on these graphs allocated ≈ 930 KB, and
// the smallest per-node matrix a step could allocate is 40 KB.
func TestTrainAllocBudget(t *testing.T) {
	const (
		inDim       = 8
		budgetBytes = 4000
		budgetAlloc = 120
	)
	samples := trainSamples(5, inDim, 180, 220, 200, 240, 160)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	train := func(epochs int) (bytes, mallocs uint64) {
		m := NewModel(Config{Hidden1: 64, Hidden2: 32, FCHidden: 32, Epochs: epochs, LR: 1e-3, Seed: 3}, inDim)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := m.Train(samples); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		train(1) // the worker pool of this size starts on first use
		b2, m2 := train(2)
		b6, m6 := train(6)
		runtime.GOMAXPROCS(prev)
		steps := float64(4 * len(samples))
		bytes, mallocs := (float64(b6)-float64(b2))/steps, (float64(m6)-float64(m2))/steps
		t.Logf("GOMAXPROCS=%d: %.0f B and %.1f mallocs per step", procs, bytes, mallocs)
		if bytes > budgetBytes || mallocs > budgetAlloc {
			t.Errorf("GOMAXPROCS=%d: a training step allocates %.0f B in %.1f mallocs, budget %d B in %d",
				procs, bytes, mallocs, budgetBytes, budgetAlloc)
		}
	}
}
