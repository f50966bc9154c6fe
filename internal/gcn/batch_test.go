package gcn

import (
	"testing"
)

// TestPredictBatchMatchesSerialAtAnyWorkerCount: the batched forward
// fan-out must return exactly what one-at-a-time Predict calls return,
// in input order, for worker pools of 1, 2 and 8 — the determinism
// contract the DSE pruning rung depends on.
func TestPredictBatchMatchesSerialAtAnyWorkerCount(t *testing.T) {
	graphs := []*Graph{
		benchGraph(t, "adder", 0.1),
		benchGraph(t, "bar", 0.1),
		benchGraph(t, "adder", 0.2),
	}
	cfg := tinyConfig()
	cfg.Epochs = 1
	var want [][]float64
	{
		cfg.Workers = 1
		m := NewSlabPool().NewModel(cfg, graphs[0].X.Cols)
		for _, g := range graphs {
			want = append(want, m.Predict(g))
		}
	}
	for _, workers := range []int{1, 2, 8} {
		cfg.Workers = workers
		m := NewSlabPool().NewModel(cfg, graphs[0].X.Cols)
		got := m.PredictBatch(graphs)
		if len(got) != len(graphs) {
			t.Fatalf("workers=%d: %d results for %d graphs", workers, len(got), len(graphs))
		}
		for i := range got {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("workers=%d graph %d: %d outputs, want %d", workers, i, len(got[i]), len(want[i]))
			}
			for j := range got[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("workers=%d graph %d output %d: %g != serial %g",
						workers, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}
