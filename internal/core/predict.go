package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"edacloud/internal/aig"
	"edacloud/internal/designs"
	"edacloud/internal/gcn"
	"edacloud/internal/netlist"
	"edacloud/internal/par"
	"edacloud/internal/synth"
	"edacloud/internal/techlib"
)

// DatasetOptions configures dataset generation for the runtime
// predictor. The paper's dataset is 18 benchmarks x logic-optimization
// recipes = 330 netlists with 2640 runtime labels; the same procedure
// here is parameterized so tests and benches can use smaller slices.
type DatasetOptions struct {
	// Benchmarks to include; nil means all 18.
	Benchmarks []string
	// Recipes are the logic-optimization scripts producing structural
	// variants; nil means synth.StandardRecipes.
	Recipes []synth.Recipe
	// Scale sizes the generated benchmarks; 0 means 0.08.
	Scale float64
	// VCPUs lists the labeled machine configurations; nil = {1,2,4,8}.
	VCPUs []int
	// Workers bounds the fan-out of per-(benchmark, recipe) flow runs
	// across real cores and the worker pools inside each flow's
	// kernels; 0 means GOMAXPROCS. The dataset is identical for every
	// value.
	Workers int
}

// datasetWorkScale extrapolates benchmark-scale runtimes to full-flow
// magnitudes (see workScaleFor; benchmarks have no declared full-size
// target, so a representative constant is used).
const datasetWorkScale = 2e4

func (o DatasetOptions) withDefaults() DatasetOptions {
	if o.Benchmarks == nil {
		o.Benchmarks = designs.BenchmarkNames()
	}
	if o.Recipes == nil {
		o.Recipes = synth.StandardRecipes
	}
	if o.Scale == 0 {
		o.Scale = 0.08
	}
	if o.VCPUs == nil {
		o.VCPUs = []int{1, 2, 4, 8}
	}
	return o
}

// LabeledGraph is one dataset sample: a graph representation of a
// netlist (or AIG) plus measured per-configuration runtimes.
type LabeledGraph struct {
	Design   string // base benchmark (unseen-design splits key on this)
	Variant  string // recipe name
	Graph    *gcn.Graph
	Runtimes []float64 // seconds, aligned with Dataset.VCPUs
}

// Dataset carries per-job samples.
type Dataset struct {
	Jobs    map[JobKind][]LabeledGraph
	VCPUs   []int
	Designs []string
}

// NumNetlists returns the number of distinct netlist variants.
func (d *Dataset) NumNetlists() int { return len(d.Jobs[JobPlacement]) }

// NumLabels returns the total number of runtime labels.
func (d *Dataset) NumLabels() int {
	n := 0
	for _, samples := range d.Jobs {
		for _, s := range samples {
			n += len(s.Runtimes)
		}
	}
	return n
}

// BuildDataset synthesizes every benchmark under every recipe, profiles
// the full flow for every vCPU configuration, and collects graphs plus
// runtime labels. Synthesis samples use the AIG graph (the paper
// runs the synthesis predictor on the AIG); placement, routing and STA
// samples use the mapped netlist's star graph.
//
// The per-(benchmark, recipe) units fan out across real cores: they
// share nothing (each clones its benchmark and runs the flow once, under
// its own probes that model every vCPU configuration — see sweepFlow)
// and the dataset is assembled after the barrier in benchmark-then-
// recipe order, so it is identical for any worker count.
func BuildDataset(lib *techlib.Library, opts DatasetOptions) (*Dataset, error) {
	opts = opts.withDefaults()
	ds := &Dataset{
		Jobs:    map[JobKind][]LabeledGraph{},
		VCPUs:   opts.VCPUs,
		Designs: opts.Benchmarks,
	}
	nRecipes := len(opts.Recipes)
	type unitOut struct {
		// The synthesis predictor consumes the *input* AIG (the paper:
		// RTL is elaborated to an AIG before synthesis), so its graph
		// is fixed per benchmark; recipes only produce the netlist
		// variants the placement/routing/STA predictors train on. One
		// synthesis sample per (benchmark, recipe pair) would pair one
		// graph with conflicting labels, so synthesis is sampled once
		// per benchmark under the first recipe, and only that unit
		// builds inputAIG.
		inputAIG *gcn.Graph
		nlGraph  *gcn.Graph
		runtimes map[JobKind][]float64
		err      error
	}
	benchGraphs := make([]*aig.Graph, len(opts.Benchmarks))
	for i, bench := range opts.Benchmarks {
		g, err := designs.Benchmark(bench, opts.Scale)
		if err != nil {
			return nil, err
		}
		benchGraphs[i] = g
	}
	pool := par.Fixed(opts.Workers)
	units := par.Map(pool, len(opts.Benchmarks)*nRecipes, func(u int) unitOut {
		bench := opts.Benchmarks[u/nRecipes]
		ri := u % nRecipes
		recipe := opts.Recipes[ri]
		// Clone per unit: the AIG memoizes levels/fanouts lazily, so
		// concurrent units must not share one graph.
		g := benchGraphs[u/nRecipes].Clone()
		out := unitOut{runtimes: map[JobKind][]float64{}}
		if ri == 0 {
			out.inputAIG = gcn.FromStarGraph(netlist.AIGGraph(g))
		}
		rc, reportAt, err := sweepFlow(g, lib, recipe, opts.Workers, opts.VCPUs)
		if err != nil {
			return unitOut{err: fmt.Errorf("core: dataset %s/%s: %w", bench, recipe.Name, err)}
		}
		out.nlGraph = gcn.FromStarGraph(rc.Netlist.StarGraph())
		for _, v := range opts.VCPUs {
			// Labels are extrapolated to full-flow magnitudes with a
			// fixed factor; relative (percentage) prediction errors
			// are invariant to it, but log-space training and the
			// Fig. 5 histogram operate on paper-like seconds.
			m := machineFor(v, true, 0, datasetWorkScale)
			for _, k := range JobKinds() {
				out.runtimes[k] = append(out.runtimes[k], m.Seconds(reportAt(k, v)))
			}
		}
		return out
	})
	for bi, bench := range opts.Benchmarks {
		for ri, recipe := range opts.Recipes {
			unit := units[bi*nRecipes+ri]
			if unit.err != nil {
				return nil, unit.err
			}
			for _, k := range JobKinds() {
				if k == JobSynthesis {
					if ri == 0 {
						ds.Jobs[k] = append(ds.Jobs[k], LabeledGraph{
							Design:   bench,
							Variant:  recipe.Name,
							Graph:    unit.inputAIG,
							Runtimes: unit.runtimes[k],
						})
					}
					continue
				}
				ds.Jobs[k] = append(ds.Jobs[k], LabeledGraph{
					Design:   bench,
					Variant:  recipe.Name,
					Graph:    unit.nlGraph,
					Runtimes: unit.runtimes[k],
				})
			}
		}
	}
	return ds, nil
}

// SplitByDesign partitions sample indices so that test samples come
// from designs never seen in training (the paper's split discipline).
func (d *Dataset) SplitByDesign(k JobKind, testFrac float64, seed int64) (train, test []LabeledGraph) {
	names := append([]string(nil), d.Designs...)
	sort.Strings(names)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	nTest := int(float64(len(names)) * testFrac)
	if nTest < 1 && len(names) > 1 {
		nTest = 1
	}
	testSet := map[string]bool{}
	for _, n := range names[:nTest] {
		testSet[n] = true
	}
	for _, s := range d.Jobs[k] {
		if testSet[s.Design] {
			test = append(test, s)
		} else {
			train = append(train, s)
		}
	}
	return train, test
}

// Predictor bundles one trained GCN per application, as the paper
// trains each application's model separately.
type Predictor struct {
	Models  map[JobKind]*gcn.Model
	Scalers map[JobKind]*gcn.TargetScaler
	VCPUs   []int
}

// ErrRecord is one test-set prediction outcome.
type ErrRecord struct {
	Design, Variant string
	Pred, Actual    []float64 // seconds
}

// JobEval aggregates test error for one application.
type JobEval struct {
	Records []ErrRecord
	// AvgAbsPctErr is mean |pred-actual|/actual over all records and
	// configurations — the paper's headline accuracy metric.
	AvgAbsPctErr float64
}

// ErrorsSeconds flattens signed errors (pred - actual, seconds), the
// quantity the paper histograms in Fig. 5.
func (e *JobEval) ErrorsSeconds() []float64 {
	var out []float64
	for _, r := range e.Records {
		for j := range r.Pred {
			out = append(out, r.Pred[j]-r.Actual[j])
		}
	}
	return out
}

// Histogram buckets the signed errors into n bins over [min, max].
func (e *JobEval) Histogram(bins int) (edges []float64, counts []int) {
	errs := e.ErrorsSeconds()
	if len(errs) == 0 || bins < 1 {
		return nil, nil
	}
	lo, hi := errs[0], errs[0]
	for _, v := range errs {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi == lo {
		hi = lo + 1
	}
	edges = make([]float64, bins+1)
	for i := range edges {
		edges[i] = lo + (hi-lo)*float64(i)/float64(bins)
	}
	counts = make([]int, bins)
	for _, v := range errs {
		b := int((v - lo) / (hi - lo) * float64(bins))
		if b >= bins {
			b = bins - 1
		}
		counts[b]++
	}
	return edges, counts
}

// PredictionEval is the Fig. 5 result set.
type PredictionEval struct {
	PerJob map[JobKind]*JobEval
}

// TrainPredictor trains per-application models on a design-disjoint
// split and evaluates them on the held-out designs.
//
// The models train side by side on the cfg.Workers pool, the shape of
// BuildDataset's fan-out: each has its own split, scaler, seed and
// training arena, and the *gcn.Graph values that placement, routing and
// STA samples share are only read (their lazy successor layout is
// sync.Once-guarded). The kernels inside each model use the same pool
// and run inline when the models already fill it. Results, and the
// first error, are taken in kind order after the barrier, so the
// predictor is identical for any worker count.
func TrainPredictor(ds *Dataset, cfg gcn.Config, testFrac float64, seed int64) (*Predictor, *PredictionEval, error) {
	type trained struct {
		model  *gcn.Model
		scaler *gcn.TargetScaler
		eval   *JobEval
		err    error
	}
	kinds := JobKinds()
	results := par.Map(par.Fixed(cfg.Workers), len(kinds), func(i int) trained {
		k := kinds[i]
		train, test := ds.SplitByDesign(k, testFrac, seed)
		if len(train) == 0 {
			return trained{err: fmt.Errorf("core: no training samples for %v", k)}
		}
		var targets [][]float64
		for _, s := range train {
			targets = append(targets, s.Runtimes)
		}
		scaler := gcn.FitScaler(targets)
		samples := make([]gcn.Sample, len(train))
		for i, s := range train {
			samples[i] = gcn.Sample{
				Name:    s.Design + "/" + s.Variant,
				G:       s.Graph,
				Targets: scaler.Transform(s.Runtimes),
			}
		}
		jobCfg := cfg
		jobCfg.Outputs = len(ds.VCPUs)
		jobCfg.Seed = seed + int64(k)
		model := gcn.NewModel(jobCfg, netlist.FeatureDim)
		if _, err := model.Train(samples); err != nil {
			return trained{err: err}
		}

		je := &JobEval{}
		var pctSum float64
		var pctN int
		for _, s := range test {
			p := scaler.Invert(model.Predict(s.Graph))
			je.Records = append(je.Records, ErrRecord{
				Design: s.Design, Variant: s.Variant,
				Pred: p, Actual: s.Runtimes,
			})
			for j := range p {
				if s.Runtimes[j] > 0 {
					pctSum += math.Abs(p[j]-s.Runtimes[j]) / s.Runtimes[j]
					pctN++
				}
			}
		}
		if pctN > 0 {
			je.AvgAbsPctErr = 100 * pctSum / float64(pctN)
		}
		return trained{model: model, scaler: scaler, eval: je}
	})

	pred := &Predictor{
		Models:  map[JobKind]*gcn.Model{},
		Scalers: map[JobKind]*gcn.TargetScaler{},
		VCPUs:   ds.VCPUs,
	}
	eval := &PredictionEval{PerJob: map[JobKind]*JobEval{}}
	for i, k := range kinds {
		r := results[i]
		if r.err != nil {
			return nil, nil, r.err
		}
		pred.Models[k] = r.model
		pred.Scalers[k] = r.scaler
		eval.PerJob[k] = r.eval
	}
	return pred, eval, nil
}

// PredictRuntimes returns predicted per-configuration runtimes in
// seconds for a graph under the given application's model.
func (p *Predictor) PredictRuntimes(k JobKind, g *gcn.Graph) ([]float64, error) {
	model := p.Models[k]
	if model == nil {
		return nil, fmt.Errorf("core: no model for %v", k)
	}
	return p.Scalers[k].Invert(model.Predict(g)), nil
}

// PredictRuntimesBatch predicts per-configuration runtimes for many
// graphs at once, fanning the forward passes out across the model's
// worker pool (gcn.Model.PredictBatch). Results are in input order and
// bit-identical to per-graph PredictRuntimes calls at any worker
// count.
func (p *Predictor) PredictRuntimesBatch(k JobKind, graphs []*gcn.Graph) ([][]float64, error) {
	model := p.Models[k]
	if model == nil {
		return nil, fmt.Errorf("core: no model for %v", k)
	}
	raw := model.PredictBatch(graphs)
	out := make([][]float64, len(raw))
	for i, r := range raw {
		out[i] = p.Scalers[k].Invert(r)
	}
	return out, nil
}
