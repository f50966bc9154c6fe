// Package gcn implements the paper's runtime prediction model (its
// Fig. 4): a Graph Convolutional Network over the star-model graph of
// a netlist (or the DAG of an AIG) that outputs the predicted runtime
// of an EDA job under 1, 2, 4 and 8 vCPUs.
//
// The architecture follows the paper exactly: K graph-convolution
// layers computing
//
//	h_v^k = ReLU( W_k * mean_{u in N(v)} h_u^{k-1} + B_k * h_v^{k-1} )
//
// (two layers, 256 and 128 hidden units by default), sum-pooling into
// a graph embedding, one fully-connected hidden layer (128 units) and
// a 4-wide linear output. Training minimizes MSE with Adam (lr=1e-4),
// 200 epochs. All of it — forward, backprop, Adam — is implemented
// here on the dense kernels of internal/mat.
package gcn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"edacloud/internal/mat"
	"edacloud/internal/netlist"
	"edacloud/internal/par"
)

// Config holds model hyperparameters. Zero values take the paper's
// settings.
type Config struct {
	Hidden1  int     // first graph-conv width; 0 = 256
	Hidden2  int     // second graph-conv width; 0 = 128
	FCHidden int     // fully-connected width; 0 = 128
	Outputs  int     // prediction width; 0 = 4 (one per vCPU config)
	LR       float64 // Adam learning rate; 0 = 1e-4
	Epochs   int     // training epochs; 0 = 200
	Seed     int64   // weight-init and shuffle seed
	// Workers bounds the worker pool for the matrix and aggregation
	// kernels; 0 = GOMAXPROCS. Results are identical for every value.
	Workers int
}

// Check refuses settings no model can train with: a negative layer
// width or epoch count, or a learning rate that is negative or not
// finite.
func (c Config) Check() error {
	for _, w := range []struct {
		name string
		v    int
	}{{"Hidden1", c.Hidden1}, {"Hidden2", c.Hidden2}, {"FCHidden", c.FCHidden}, {"Outputs", c.Outputs}} {
		if w.v < 0 {
			return fmt.Errorf("gcn: %s %d: a layer width must not be negative", w.name, w.v)
		}
	}
	if c.Epochs < 0 {
		return fmt.Errorf("gcn: Epochs %d: the epoch count must not be negative", c.Epochs)
	}
	if !(c.LR >= 0) || math.IsInf(c.LR, 0) {
		return fmt.Errorf("gcn: LR %v: the learning rate must be finite and not negative", c.LR)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Hidden1 == 0 {
		c.Hidden1 = 256
	}
	if c.Hidden2 == 0 {
		c.Hidden2 = 128
	}
	if c.FCHidden == 0 {
		c.FCHidden = 128
	}
	if c.Outputs == 0 {
		c.Outputs = 4
	}
	if c.LR == 0 {
		c.LR = 1e-4
	}
	if c.Epochs == 0 {
		c.Epochs = 200
	}
	return c
}

// Graph is the preprocessed model input: node features plus the
// mean-aggregation structure over in-neighbors (edge directions are
// preserved, as the paper requires for DAG inputs).
type Graph struct {
	X *mat.Dense // NumNodes x FeatureDim
	// Reverse adjacency in CSR: predecessors of node v are
	// Pred[PredStart[v]:PredStart[v+1]].
	PredStart []int32
	Pred      []int32

	// Forward (successor) CSR mirror of Pred, built lazily: successors
	// of node u are succ[succStart[u]:succStart[u+1]] in ascending
	// order. It turns the backward scatter into a row-parallel gather
	// (see aggregateBack).
	succOnce  sync.Once
	succStart []int32
	succ      []int32
}

// forwardCSR returns the successor layout, building it on first use.
// Successors of each node come out in ascending order — the same order
// the edge scatter visited them — so gathers over this layout
// accumulate bit-identically to the original serial sweep.
func (g *Graph) forwardCSR() ([]int32, []int32) {
	g.succOnce.Do(func() {
		n := len(g.PredStart) - 1
		count := make([]int32, n+1)
		for v := 0; v < n; v++ {
			for _, u := range g.Pred[g.PredStart[v]:g.PredStart[v+1]] {
				count[u+1]++
			}
		}
		for i := 0; i < n; i++ {
			count[i+1] += count[i]
		}
		succ := make([]int32, len(g.Pred))
		cursor := make([]int32, n)
		for v := 0; v < n; v++ {
			for _, u := range g.Pred[g.PredStart[v]:g.PredStart[v+1]] {
				succ[count[u]+cursor[u]] = int32(v)
				cursor[u]++
			}
		}
		g.succStart, g.succ = count, succ
	})
	return g.succStart, g.succ
}

// FromStarGraph converts a netlist/AIG star-model export into model
// input form.
func FromStarGraph(g *netlist.Graph) *Graph {
	x := mat.FromRows(g.Features)
	// Reverse the successor CSR.
	n := g.NumNodes
	count := make([]int32, n+1)
	for u := 0; u < n; u++ {
		for _, v := range g.Successors(u) {
			count[v+1]++
		}
	}
	for i := 0; i < n; i++ {
		count[i+1] += count[i]
	}
	pred := make([]int32, g.NumEdges())
	cursor := make([]int32, n)
	for u := 0; u < n; u++ {
		for _, v := range g.Successors(u) {
			pred[count[v]+cursor[v]] = int32(u)
			cursor[v]++
		}
	}
	return &Graph{X: x, PredStart: count, Pred: pred}
}

// aggregate computes out[v] = mean over predecessors u of h[u]
// (zero for source nodes). Output rows are independent — each reads
// only h — so the node loop runs on the pool with results identical
// to a serial sweep.
func (g *Graph) aggregate(p *par.Pool, h, out *mat.Dense) {
	out.Zero()
	if p.Workers() > 1 {
		p.For(h.Rows, aggGrain(h.Cols), func(lo, hi int) { g.aggregateRows(h, out, lo, hi) })
	} else {
		g.aggregateRows(h, out, 0, h.Rows)
	}
}

// aggregateRows computes rows [vlo, vhi) of aggregate's out.
func (g *Graph) aggregateRows(h, out *mat.Dense, vlo, vhi int) {
	for v := vlo; v < vhi; v++ {
		lo, hi := g.PredStart[v], g.PredStart[v+1]
		if lo == hi {
			continue
		}
		oRow := out.Row(v)
		inv := 1 / float64(hi-lo)
		for _, u := range g.Pred[lo:hi] {
			uRow := h.Row(int(u))
			for j, uv := range uRow {
				oRow[j] += uv * inv
			}
		}
	}
}

// aggGrain chunks the aggregation sweep to roughly 32k element-ops.
func aggGrain(cols int) int {
	return max(1, (32<<10)/max(cols, 1))
}

// aggregateBack propagates gradients through the aggregation: for each
// edge u->v, dH[u] += dAgg[v]/indeg(v). The edge-wise scatter writes
// through shared dH rows, so instead of scattering it gathers over the
// forward (successor) CSR: each dH row reads only its successors'
// dAgg rows, making the node loop row-parallel. Successors come out in
// the same ascending order the serial scatter visited them, so the
// accumulation is bit-identical at any worker count.
func (g *Graph) aggregateBack(p *par.Pool, dAgg, dH *mat.Dense) {
	succStart, succ := g.forwardCSR()
	p.For(dH.Rows, aggGrain(dAgg.Cols), func(ulo, uhi int) {
		for u := ulo; u < uhi; u++ {
			lo, hi := succStart[u], succStart[u+1]
			if lo == hi {
				continue
			}
			uRow := dH.Row(u)
			for _, v := range succ[lo:hi] {
				inv := 1 / float64(g.PredStart[v+1]-g.PredStart[v])
				aRow := dAgg.Row(int(v))
				for j, av := range aRow {
					uRow[j] += av * inv
				}
			}
		}
	})
}

// Model is the trained predictor.
type Model struct {
	Cfg   Config
	InDim int

	// Graph-conv layer k: W aggregated term, B self term.
	W1, B1 *mat.Dense
	W2, B2 *mat.Dense
	// Fully connected head.
	FW, FBias *mat.Dense
	OW, OBias *mat.Dense

	adam  *adamState
	pool  *par.Pool
	slabs *SlabPool
}

// NewModel initializes a model for the given input feature width, with
// a slab pool of its own.
func NewModel(cfg Config, inDim int) *Model {
	return NewSlabPool().NewModel(cfg, inDim)
}

// NewModel initializes a model for the given input feature width that
// takes its working memory from sp.
func (sp *SlabPool) NewModel(cfg Config, inDim int) *Model {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	m := &Model{
		Cfg:   cfg,
		InDim: inDim,
		W1:    mat.New(inDim, cfg.Hidden1),
		B1:    mat.New(inDim, cfg.Hidden1),
		W2:    mat.New(cfg.Hidden1, cfg.Hidden2),
		B2:    mat.New(cfg.Hidden1, cfg.Hidden2),
		// The fully-connected head consumes the pooled embedding plus
		// one explicit log-size feature (see forward).
		FW:    mat.New(cfg.Hidden2+1, cfg.FCHidden),
		FBias: mat.New(1, cfg.FCHidden),
		OW:    mat.New(cfg.FCHidden, cfg.Outputs),
		OBias: mat.New(1, cfg.Outputs),
	}
	for _, w := range []*mat.Dense{m.W1, m.B1, m.W2, m.B2, m.FW, m.OW} {
		w.Glorot(rng)
	}
	m.adam = newAdamState(m.params())
	m.pool = par.Fixed(cfg.Workers)
	m.slabs = sp
	return m
}

func (m *Model) params() []*mat.Dense {
	return []*mat.Dense{m.W1, m.B1, m.W2, m.B2, m.FW, m.FBias, m.OW, m.OBias}
}

// arena is the bump allocator one Train or Predict call carves its
// per-sample matrices from: activations, masks, temporaries and
// gradient products. fit sizes it for a sample before the call's first
// step and reset rewinds it for the next, so a training run allocates
// nothing per step — at ~200 nodes a dozen fresh n x hidden matrices
// per step, not the arithmetic, was most of the cost of training.
//
// A call takes its arena from its model's SlabPool and gives it back on
// return, never shares it while it runs. A nil *arena allocates every
// matrix afresh, which is the reference the arena is tested against.
type arena struct {
	buf  []float64
	off  int // floats of buf handed out since reset
	need int // floats requested since reset, spilled ones included
	hdr  []mat.Dense
	nhdr int
}

// mat returns a rows x cols matrix whose contents are unspecified:
// every caller overwrites all of it (the mat kernels zero their out,
// aggregate zeroes its own, ReLU fills its mask). A request the slab
// cannot hold — fit was given too small a size — is served from the
// heap.
func (ar *arena) mat(rows, cols int) *mat.Dense {
	if ar == nil {
		return mat.New(rows, cols)
	}
	n := rows * cols
	ar.need += n
	var data []float64
	if ar.off+n <= len(ar.buf) {
		data = ar.buf[ar.off : ar.off+n : ar.off+n]
		ar.off += n
	} else {
		data = make([]float64, n)
	}
	if ar.nhdr == len(ar.hdr) {
		// Headers handed out stay valid in the block they came from.
		ar.hdr = make([]mat.Dense, 2*len(ar.hdr)+32)
		ar.nhdr = 0
	}
	d := &ar.hdr[ar.nhdr]
	ar.nhdr++
	*d = mat.Dense{Rows: rows, Cols: cols, Data: data}
	return d
}

// reset invalidates every matrix handed out.
func (ar *arena) reset() {
	if ar == nil {
		return
	}
	ar.off, ar.need, ar.nhdr = 0, 0, 0
}

// fit grows the slab to hold floats, if it is short, and rewinds it.
func (ar *arena) fit(floats int) {
	if ar == nil {
		return
	}
	if floats > len(ar.buf) {
		ar.buf = make([]float64, floats)
	}
	ar.reset()
}

// SlabPool is the working memory the models of one trained predictor
// share: arenas no Train or Predict call holds at the moment. A call
// takes one, fits it to its graph and gives it back on return, so a
// slab outlives the call that grew it — the slabs a training run sized
// for its largest sample serve every later prediction of every model on
// the pool. Calls may run concurrently; each holds its own arena. The
// pool lives as long as the models that hold it.
type SlabPool struct {
	mu   sync.Mutex
	free []*arena
}

// NewSlabPool returns an empty pool.
func NewSlabPool() *SlabPool { return &SlabPool{} }

// take hands out an arena no other call holds.
func (sp *SlabPool) take() *arena {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	n := len(sp.free)
	if n == 0 {
		return &arena{}
	}
	ar := sp.free[n-1]
	sp.free = sp.free[:n-1]
	return ar
}

// give returns an arena taken from the pool.
func (sp *SlabPool) give(ar *arena) {
	sp.mu.Lock()
	sp.free = append(sp.free, ar)
	sp.mu.Unlock()
}

// forwardState caches activations for backprop.
type forwardState struct {
	g        *Graph
	agg1, h1 *mat.Dense
	mask1    *mat.Dense
	agg2, h2 *mat.Dense
	mask2    *mat.Dense
	pooled   *mat.Dense
	fc       *mat.Dense
	fcMask   *mat.Dense
	out      *mat.Dense
}

// forwardFloats is what forward carves from its arena for an n-node
// graph without masks — the slab Predict needs.
func (m *Model) forwardFloats(n int) int {
	c := m.Cfg
	return n*(m.InDim+2*c.Hidden1+c.Hidden2) + 2*c.Hidden2 + 1 + c.FCHidden + c.Outputs
}

// trainFloats is what one training step carves for an n-node graph:
// forward with its three masks, then backward's temporaries (dH2,
// dAgg2, dH1 and the head's) and its gradient products — the slab Train
// sizes for its largest sample.
func (m *Model) trainFloats(n int) int {
	c := m.Cfg
	masks := n*(c.Hidden1+c.Hidden2) + c.FCHidden
	back := n*(2*c.Hidden1+c.Hidden2) + 2*m.InDim*c.Hidden1 + 2*c.Hidden1*c.Hidden2 +
		(c.Hidden2+1)*(c.FCHidden+1) + c.FCHidden*(c.Outputs+1) + c.Outputs
	return m.forwardFloats(n) + masks + back
}

// forward runs the network on one graph, carving every matrix from ar.
// With train set it also records the ReLU masks backward needs;
// inference builds none.
func (m *Model) forward(g *Graph, ar *arena, train bool) forwardState {
	st := forwardState{g: g}
	n := g.X.Rows
	mask := func(rows, cols int) *mat.Dense {
		if !train {
			return nil
		}
		return ar.mat(rows, cols)
	}

	st.agg1 = ar.mat(n, m.InDim)
	g.aggregate(m.pool, g.X, st.agg1)
	st.h1 = mat.MulAddPool(m.pool, st.agg1, m.W1, g.X, m.B1, ar.mat(n, m.Cfg.Hidden1))
	st.mask1 = mask(n, m.Cfg.Hidden1)
	mat.ReLU(st.h1, st.mask1)

	st.agg2 = ar.mat(n, m.Cfg.Hidden1)
	g.aggregate(m.pool, st.h1, st.agg2)
	st.h2 = mat.MulAddPool(m.pool, st.agg2, m.W2, st.h1, m.B2, ar.mat(n, m.Cfg.Hidden2))
	st.mask2 = mask(n, m.Cfg.Hidden2)
	mat.ReLU(st.h2, st.mask2)

	// Pooling over nodes builds the graph embedding. The embedding is
	// normalized by node count (mean pooling keeps activations in a
	// stable range across designs whose sizes span decades) and
	// augmented with an explicit log-node-count feature, which is what
	// lets the head extrapolate runtime to unseen design sizes.
	pooledSum := mat.SumRows(st.h2, ar.mat(1, m.Cfg.Hidden2))
	pooledSum.Scale(1 / float64(max(n, 1)))
	st.pooled = ar.mat(1, m.Cfg.Hidden2+1)
	copy(st.pooled.Data, pooledSum.Data)
	st.pooled.Data[m.Cfg.Hidden2] = math.Log1p(float64(n))

	st.fc = mat.MulPool(m.pool, st.pooled, m.FW, ar.mat(1, m.Cfg.FCHidden))
	mat.AddInPlace(st.fc, m.FBias)
	st.fcMask = mask(1, m.Cfg.FCHidden)
	mat.ReLU(st.fc, st.fcMask)

	st.out = mat.MulPool(m.pool, st.fc, m.OW, ar.mat(1, m.Cfg.Outputs))
	mat.AddInPlace(st.out, m.OBias)
	return st
}

// Predict returns the raw (normalized-space) model outputs for a graph.
// Its activations come from a slab of the model's pool, grown to the
// graph if it is short and given back on return.
func (m *Model) Predict(g *Graph) []float64 {
	ar := m.slabs.take()
	defer m.slabs.give(ar)
	ar.fit(m.forwardFloats(g.X.Rows))
	st := m.forward(g, ar, false)
	out := make([]float64, m.Cfg.Outputs)
	copy(out, st.out.Data)
	return out
}

// grads mirrors params().
type grads struct {
	dW1, dB1, dW2, dB2, dFW, dFBias, dOW, dOBias *mat.Dense
}

func (m *Model) newGrads() *grads {
	return &grads{
		dW1: mat.New(m.W1.Rows, m.W1.Cols), dB1: mat.New(m.B1.Rows, m.B1.Cols),
		dW2: mat.New(m.W2.Rows, m.W2.Cols), dB2: mat.New(m.B2.Rows, m.B2.Cols),
		dFW: mat.New(m.FW.Rows, m.FW.Cols), dFBias: mat.New(1, m.FBias.Cols),
		dOW: mat.New(m.OW.Rows, m.OW.Cols), dOBias: mat.New(1, m.OBias.Cols),
	}
}

func (g *grads) list() []*mat.Dense {
	return []*mat.Dense{g.dW1, g.dB1, g.dW2, g.dB2, g.dFW, g.dFBias, g.dOW, g.dOBias}
}

// backward accumulates gradients of the squared-error loss for one
// sample into gr and returns the sample loss. Its temporaries and
// gradient products come from ar, like the activations in st.
func (m *Model) backward(st forwardState, target []float64, gr *grads, ar *arena) float64 {
	// dOut = 2*(pred - target)/outputs.
	k := float64(m.Cfg.Outputs)
	dOut := ar.mat(1, m.Cfg.Outputs)
	var loss float64
	for j := 0; j < m.Cfg.Outputs; j++ {
		diff := st.out.Data[j] - target[j]
		loss += diff * diff / k
		dOut.Data[j] = 2 * diff / k
	}
	// atb and abt are the two backprop products on arena storage.
	atb := func(a, b *mat.Dense) *mat.Dense {
		return mat.MulATBPool(m.pool, a, b, ar.mat(a.Cols, b.Cols))
	}
	abt := func(a, b *mat.Dense) *mat.Dense {
		return mat.MulABTPool(m.pool, a, b, ar.mat(a.Rows, b.Rows))
	}

	// Output layer.
	mat.AddInPlace(gr.dOBias, dOut)
	mat.AddInPlace(gr.dOW, atb(st.fc, dOut))
	dFC := abt(dOut, m.OW)
	mat.MulElem(dFC, st.fcMask)

	// FC layer.
	mat.AddInPlace(gr.dFBias, dFC)
	mat.AddInPlace(gr.dFW, atb(st.pooled, dFC))
	dPooled := abt(dFC, m.FW)

	// Pooling broadcast: every node row receives the embedding part of
	// dPooled scaled by 1/n (the size feature is an input, not
	// backpropagated).
	n := st.h2.Rows
	dH2 := ar.mat(n, m.Cfg.Hidden2)
	inv := 1 / float64(max(n, 1))
	for i := 0; i < n; i++ {
		row := dH2.Row(i)
		for j := 0; j < m.Cfg.Hidden2; j++ {
			row[j] = dPooled.Data[j] * inv
		}
	}
	mat.MulElem(dH2, st.mask2)

	// Layer 2: h2 = agg2*W2 + h1*B2.
	mat.AddInPlace(gr.dW2, atb(st.agg2, dH2))
	mat.AddInPlace(gr.dB2, atb(st.h1, dH2))
	dAgg2 := abt(dH2, m.W2)
	dH1 := abt(dH2, m.B2)
	st.g.aggregateBack(m.pool, dAgg2, dH1)
	mat.MulElem(dH1, st.mask1)

	// Layer 1: h1 = agg1*W1 + X*B1.
	mat.AddInPlace(gr.dW1, atb(st.agg1, dH1))
	mat.AddInPlace(gr.dB1, atb(st.g.X, dH1))
	// No gradient past the input features.
	return loss
}

// Sample pairs a graph with its normalized target vector.
type Sample struct {
	Name    string
	G       *Graph
	Targets []float64
}

// TrainStats reports a training run.
type TrainStats struct {
	Epochs    int
	FinalLoss float64
	LossCurve []float64
}

// Train fits the model to the samples with per-sample (stochastic)
// Adam updates, shuffling each epoch. The run holds one arena of the
// model's pool, sized for its largest sample before the first step and
// rewound per step, and one gradient set, zeroed per step; a step
// allocates no matrix.
func (m *Model) Train(samples []Sample) (TrainStats, error) {
	ar := m.slabs.take()
	defer m.slabs.give(ar)
	return m.train(samples, ar)
}

// train is Train on the given arena; nil allocates every matrix afresh.
func (m *Model) train(samples []Sample, ar *arena) (TrainStats, error) {
	if err := m.Cfg.Check(); err != nil {
		return TrainStats{}, err
	}
	if len(samples) == 0 {
		return TrainStats{}, fmt.Errorf("gcn: no training samples")
	}
	largest := 0
	for _, s := range samples {
		largest = max(largest, s.G.X.Rows)
		if len(s.Targets) != m.Cfg.Outputs {
			return TrainStats{}, fmt.Errorf("gcn: sample %q has %d targets, model wants %d",
				s.Name, len(s.Targets), m.Cfg.Outputs)
		}
		if s.G.X.Cols != m.InDim {
			return TrainStats{}, fmt.Errorf("gcn: sample %q feature width %d, model wants %d",
				s.Name, s.G.X.Cols, m.InDim)
		}
	}
	rng := rand.New(rand.NewSource(m.Cfg.Seed + 7))
	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}
	ar.fit(m.trainFloats(largest))
	stats := TrainStats{Epochs: m.Cfg.Epochs}
	gr := m.newGrads()
	params, gradList := m.params(), gr.list()
	for epoch := 0; epoch < m.Cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		for _, idx := range order {
			s := samples[idx]
			ar.reset()
			for _, g := range gradList {
				g.Zero()
			}
			st := m.forward(s.G, ar, true)
			epochLoss += m.backward(st, s.Targets, gr, ar)
			m.adam.step(params, gradList, m.Cfg.LR)
		}
		epochLoss /= float64(len(samples))
		stats.LossCurve = append(stats.LossCurve, epochLoss)
		stats.FinalLoss = epochLoss
	}
	return stats, nil
}

// Loss returns the mean squared error of the model on a sample set.
func (m *Model) Loss(samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	var total float64
	for _, s := range samples {
		pred := m.Predict(s.G)
		for j, p := range pred {
			d := p - s.Targets[j]
			total += d * d / float64(len(pred))
		}
	}
	return total / float64(len(samples))
}

// adamState implements the Adam optimizer.
type adamState struct {
	t   int
	mom []*mat.Dense
	vel []*mat.Dense
}

func newAdamState(params []*mat.Dense) *adamState {
	st := &adamState{}
	for _, p := range params {
		st.mom = append(st.mom, mat.New(p.Rows, p.Cols))
		st.vel = append(st.vel, mat.New(p.Rows, p.Cols))
	}
	return st
}

const (
	adamBeta1 = 0.9
	adamBeta2 = 0.999
	adamEps   = 1e-8
)

func (a *adamState) step(params, grads []*mat.Dense, lr float64) {
	a.t++
	bc1 := 1 - math.Pow(adamBeta1, float64(a.t))
	bc2 := 1 - math.Pow(adamBeta2, float64(a.t))
	for i, p := range params {
		g := grads[i]
		mo := a.mom[i]
		ve := a.vel[i]
		for k := range p.Data {
			gv := g.Data[k]
			mo.Data[k] = adamBeta1*mo.Data[k] + (1-adamBeta1)*gv
			ve.Data[k] = adamBeta2*ve.Data[k] + (1-adamBeta2)*gv*gv
			mHat := mo.Data[k] / bc1
			vHat := ve.Data[k] / bc2
			p.Data[k] -= lr * mHat / (math.Sqrt(vHat) + adamEps)
		}
	}
}

// TargetScaler normalizes runtimes into log-space z-scores per output,
// the stabilization the predictor trains in; Invert maps predictions
// back to seconds.
type TargetScaler struct {
	Mean, Std []float64
}

// FitScaler computes per-output statistics over log1p(runtimes).
func FitScaler(targets [][]float64) *TargetScaler {
	if len(targets) == 0 {
		return &TargetScaler{}
	}
	k := len(targets[0])
	sc := &TargetScaler{Mean: make([]float64, k), Std: make([]float64, k)}
	for _, t := range targets {
		for j, v := range t {
			sc.Mean[j] += math.Log1p(v)
		}
	}
	for j := range sc.Mean {
		sc.Mean[j] /= float64(len(targets))
	}
	for _, t := range targets {
		for j, v := range t {
			d := math.Log1p(v) - sc.Mean[j]
			sc.Std[j] += d * d
		}
	}
	for j := range sc.Std {
		sc.Std[j] = math.Sqrt(sc.Std[j] / float64(len(targets)))
		if sc.Std[j] < 1e-9 {
			sc.Std[j] = 1
		}
	}
	return sc
}

// Transform maps runtimes (seconds) to normalized space.
func (sc *TargetScaler) Transform(t []float64) []float64 {
	out := make([]float64, len(t))
	for j, v := range t {
		out[j] = (math.Log1p(v) - sc.Mean[j]) / sc.Std[j]
	}
	return out
}

// Invert maps normalized predictions back to seconds, clamping at
// zero (a runtime cannot be negative however wrong the model is).
func (sc *TargetScaler) Invert(z []float64) []float64 {
	out := make([]float64, len(z))
	for j, v := range z {
		out[j] = math.Expm1(v*sc.Std[j] + sc.Mean[j])
		if out[j] < 0 {
			out[j] = 0
		}
	}
	return out
}
