package gcn

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestSharedSlabPoolMatchesFreshSlabs: two models of different widths
// on one pool, trained side by side and then predicting side by side
// through PredictBatch, each on graphs small and large enough to make a
// taken slab grow, return exactly what a forward on freshly allocated,
// zeroed matrices returns — at 1, 2 and 8 workers. CI runs it under
// -race: a slab two calls held at once would show there.
func TestSharedSlabPoolMatchesFreshSlabs(t *testing.T) {
	const inDim = 6
	rng := rand.New(rand.NewSource(8))
	var graphs []*Graph
	for _, n := range []int{40, 700, 3, 260, 1200, 90, 500} {
		graphs = append(graphs, randomDAGGraph(rng, n, inDim))
	}
	for _, workers := range []int{1, 2, 8} {
		sp := NewSlabPool()
		models := []*Model{
			sp.NewModel(Config{Hidden1: 24, Hidden2: 12, FCHidden: 8, Epochs: 1, LR: 1e-3, Seed: 1, Workers: workers}, inDim),
			sp.NewModel(Config{Hidden1: 40, Hidden2: 20, FCHidden: 6, Epochs: 1, LR: 1e-3, Seed: 2, Workers: workers}, inDim),
		}
		got := make([][][]float64, len(models))
		var wg sync.WaitGroup
		for i, m := range models {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := m.Train(trainSamples(int64(i), inDim, 50, 120)); err != nil {
					t.Error(err)
					return
				}
				got[i] = m.PredictBatch(graphs)
			}()
		}
		wg.Wait()
		for i, m := range models {
			for j, g := range graphs {
				want := m.forward(g, nil, false).out.Data
				if fmt.Sprint(got[i][j]) != fmt.Sprint(want) {
					t.Fatalf("workers=%d model %d graph %d: %v on the shared pool, %v on fresh matrices", workers, i, j, got[i][j], want)
				}
			}
		}
	}
}

// TestWarmPredictAllocatesOnlyItsOutput: once a model's pool holds a
// slab that fits, a Predict on one worker allocates its output and
// nothing else — no slab, no matrix header, no closure; the budget is
// that one allocation plus 25 %. Before the pool every call allocated a
// slab of its own, its header block and two aggregation closures.
func TestWarmPredictAllocatesOnlyItsOutput(t *testing.T) {
	const inDim = 8
	g := randomDAGGraph(rand.New(rand.NewSource(4)), 300, inDim)
	m := NewModel(Config{Hidden1: 64, Hidden2: 32, FCHidden: 32, Seed: 3, Workers: 1}, inDim)
	m.Predict(g)
	allocs := testing.AllocsPerRun(50, func() { m.Predict(g) })
	t.Logf("%.1f allocations per warm Predict", allocs)
	if allocs > 1.25 {
		t.Fatalf("a warm Predict allocates %.1f times, budget 1.25", allocs)
	}
}
