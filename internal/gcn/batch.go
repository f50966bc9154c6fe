package gcn

import "edacloud/internal/par"

// PredictBatch runs Predict over many graphs, fanning the forward
// passes out across the model's worker pool. Each Predict carves its
// activations from a slab of its own (the arena is a local of the call,
// which is why it is not a field of Model) and only reads the (frozen)
// weights, so concurrent passes share nothing mutable; results come
// back in input order and are bit-identical to serial Predict calls
// for any worker count — the property the DSE cheap-pruning rung
// leans on.
func (m *Model) PredictBatch(graphs []*Graph) [][]float64 {
	return par.Map(m.pool, len(graphs), func(i int) []float64 {
		return m.Predict(graphs[i])
	})
}
