// Package dse is the design-space-exploration autopilot over the
// repo's deterministic cloud simulation: a seeded multi-objective
// search (successive halving with a TPE-style sampler) over synthesis
// recipes, STA clock periods and deployment slack factors, evaluated
// on the bounded fleet the lower layers already model.
//
// Every round samples a population, prices it cheaply — one
// synthesis-only scheduler batch for real QoR plus the GCN runtime
// predictor for the downstream stages — promotes the best Pareto
// fronts, and fully evaluates the survivors as one co-optimized batch
// (mckp.BatchOptimize selection, flow scheduler execution) whose
// simulated bill draws down the exploration budget. All trial
// executions route through the scheduler's artifact cache when one is
// attached, so trials sharing a recipe prefix dedup: a warm store
// evaluates more trials per simulated dollar than a cache-blind
// search, never fewer — objectives and the search trajectory are
// cache-independent by construction, only bills shrink.
package dse

import (
	"fmt"
	"math"

	"edacloud/internal/cache"
	"edacloud/internal/cloud"
	"edacloud/internal/core"
	"edacloud/internal/designs"
	"edacloud/internal/flow"
	"edacloud/internal/gcn"
	"edacloud/internal/mckp"
	"edacloud/internal/netlist"
	"edacloud/internal/par"
	"edacloud/internal/synth"
	"edacloud/internal/techlib"
)

// clockPeriodsNs is the STA clock-period axis. Trials differing only
// in clock share every artifact except timing.
var clockPeriodsNs = []float64{0.8, 1.0, 1.25}

// slackFactors is the deadline-slack axis: a trial's deployment
// deadline is its plan's fastest achievable time times the factor.
// Trials differing only in slack share all four artifacts — cache keys
// are machine-independent.
var slackFactors = []float64{1.05, 1.2, 1.5, 2.0}

// Config assembles an exploration.
type Config struct {
	// Design is the evaluation design whose flow is being explored.
	Design string
	// Scale sizes the generated design (core.CharacterizeOptions.Scale);
	// 0 means 0.03.
	Scale float64
	// MaxPasses bounds sampled recipe length; 0 means 6.
	MaxPasses int
	// Population is the per-round sample count; 0 means 8.
	Population int
	// Eta is the halving factor: ceil(Population/Eta) trials survive the
	// cheap rung; 0 means 4.
	Eta int
	// Rounds bounds the sampling rounds; 0 means 3.
	Rounds int
	// BudgetUSD stops the search once the simulated spend (cheap-rung
	// synthesis bills plus full-evaluation batch bills) reaches it,
	// checked at round boundaries; 0 means unlimited.
	BudgetUSD float64
	// Seed drives the sampler; the whole exploration is a pure function
	// of it. Workers bounds host-level fan-out; results are identical
	// for every value.
	Seed    int64
	Workers int

	// Fleet is the bounded instance pool trials contend for (never
	// mutated; executions run on clones). Catalog prices the deployment
	// problems. Lib is the technology library. Predictor supplies the
	// GCN runtime estimates for the cheap rung.
	Fleet     *cloud.Fleet
	Catalog   *cloud.Catalog
	Lib       *techlib.Library
	Predictor *core.Predictor
	// Store, when non-nil, is the shared artifact cache every trial
	// execution routes through. Nil explores cache-blind.
	Store *cache.Store
}

func (cfg Config) withDefaults() Config {
	if cfg.Scale == 0 {
		cfg.Scale = 0.03
	}
	if cfg.MaxPasses == 0 {
		cfg.MaxPasses = 6
	}
	if cfg.Population == 0 {
		cfg.Population = 8
	}
	if cfg.Eta == 0 {
		cfg.Eta = 4
	}
	if cfg.Rounds == 0 {
		cfg.Rounds = 3
	}
	return cfg
}

func (cfg Config) validate() error {
	if cfg.Design == "" {
		return fmt.Errorf("dse: config needs a design")
	}
	if cfg.Fleet == nil || len(cfg.Fleet.Instances) == 0 {
		return fmt.Errorf("dse: config needs a non-empty fleet")
	}
	if cfg.Catalog == nil || cfg.Lib == nil {
		return fmt.Errorf("dse: config needs a catalog and a library")
	}
	if cfg.Predictor == nil {
		return fmt.Errorf("dse: config needs a trained runtime predictor")
	}
	if cfg.MaxPasses < 0 || cfg.Population < 0 || cfg.Eta < 0 || cfg.Rounds < 0 {
		return fmt.Errorf("dse: MaxPasses %d, Population %d, Eta %d and Rounds %d must not be negative",
			cfg.MaxPasses, cfg.Population, cfg.Eta, cfg.Rounds)
	}
	if !(cfg.BudgetUSD >= 0) {
		return fmt.Errorf("dse: budget %v must not be negative", cfg.BudgetUSD)
	}
	return nil
}

// Trial is one evaluated point of the search space.
type Trial struct {
	ID            int
	Params        Params
	Recipe        synth.Recipe
	ClockPeriodNs float64
	SlackFactor   float64
	// Cheap is the pruning rung's estimate: real synthesis cells,
	// GCN-predicted downstream runtimes priced by a per-trial knapsack.
	Cheap Objectives
	// Full is the promoted rung's score: executed QoR (cells plus
	// timing-violation penalty at the trial's clock) and the nominal
	// deployment plan's cost and runtime at the trial's slack.
	Full Objectives
	// FullyEvaluated marks trials that survived to the full rung.
	FullyEvaluated bool
}

// Result is one exploration's outcome.
type Result struct {
	// Front is the Pareto archive over fully evaluated trials, in
	// canonical order; no point dominates another.
	Front []Trial
	// Trials holds every sampled trial in sample order (the promoted
	// ones carry Full objectives).
	Trials []Trial
	// Rounds, Sampled and Evaluated count completed rounds, sampled
	// candidates and full evaluations; Evaluated is the "trials
	// completed" currency the cache-vs-blind comparison is stated in.
	Rounds    int
	Sampled   int
	Evaluated int
	// SpentUSD is the simulated spend: every scheduler bill of every
	// rung. RoundSpentUSD is the cumulative spend after each completed
	// round — the curve the budget gate walks. CacheStats snapshots the
	// store when one was attached.
	SpentUSD      float64
	RoundSpentUSD []float64
	CacheStats    cache.Stats
}

// workScale extrapolates the cheap rung's synthesis-only runtimes to
// full-design magnitudes, matching the effort constant the
// characterization layer applies (workScaleFor's fixed factor); it
// keeps simulated stage times well above the cache-probe constant so
// a served hit is always cheaper than a re-run.
const workScale = 400

// cheapInstance picks the fleet's cheapest instance type for the
// pruning rung's synthesis runs: lowest hourly price, name as the
// deterministic tie-break.
func cheapInstance(fleet *cloud.Fleet) cloud.InstanceType {
	var best cloud.InstanceType
	for _, e := range fleet.Profile() {
		if best.Name == "" || e.Type.PricePerHour < best.PricePerHour ||
			(e.Type.PricePerHour == best.PricePerHour && e.Type.Name < best.Name) {
			best = e.Type
		}
	}
	return best
}

// explorer carries one Explore invocation's state.
type explorer struct {
	cfg     Config
	design  string
	sampler *sampler
	archive Archive
	res     *Result
	// synthSeconds is the GCN prediction for the synthesis stage on the
	// input AIG — recipe-independent, computed once.
	synthSeconds []float64
	// chars memoizes per-recipe characterizations (keyed by canonical
	// recipe name): the planning-side effort treated as free, as in the
	// paper's offline characterization.
	chars map[string]*core.DesignCharacterization
	// preds memoizes every stage's predicted seconds per distinct trial
	// netlist (by content hash): a session's trials share a handful.
	preds map[uint64]map[flow.JobKind][]float64
}

// Explore runs the search. The result is a pure function of the
// config: same seed, same trials, same archive, for any Workers value
// — only SpentUSD and CacheStats react to an attached store.
func Explore(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	g, err := designs.EvalDesign(cfg.Design, cfg.Scale)
	if err != nil {
		return nil, err
	}
	synthPred, err := cfg.Predictor.PredictRuntimes(flow.JobSynthesis, gcn.FromStarGraph(netlist.AIGGraph(g)))
	if err != nil {
		return nil, err
	}
	e := &explorer{
		cfg:          cfg,
		sampler:      newSampler(cfg.Seed, cfg.MaxPasses),
		res:          &Result{},
		synthSeconds: synthPred,
		chars:        map[string]*core.DesignCharacterization{},
		preds:        map[uint64]map[flow.JobKind][]float64{},
	}
	for round := 0; round < cfg.Rounds; round++ {
		if cfg.BudgetUSD > 0 && e.res.SpentUSD >= cfg.BudgetUSD {
			break
		}
		if err := e.runRound(round); err != nil {
			return nil, err
		}
		e.res.Rounds++
		e.res.RoundSpentUSD = append(e.res.RoundSpentUSD, e.res.SpentUSD)
	}
	e.res.Front = e.archive.Points()
	if cfg.Store != nil {
		e.res.CacheStats = cfg.Store.Stats()
	}
	return e.res, nil
}

// sampleRound draws a round's population, deduplicating within the
// round so one batch never evaluates the same point twice.
func (e *explorer) sampleRound() []*Trial {
	seen := map[string]bool{}
	var out []*Trial
	for attempts := 0; len(out) < e.cfg.Population && attempts < 20*e.cfg.Population; attempts++ {
		p := e.sampler.sample()
		k := p.key()
		if seen[k] {
			continue
		}
		seen[k] = true
		t := &Trial{
			ID:            e.res.Sampled + len(out),
			Params:        p,
			Recipe:        p.Recipe(),
			ClockPeriodNs: clockPeriodsNs[p.ClockIdx],
			SlackFactor:   slackFactors[p.SlackIdx],
		}
		out = append(out, t)
	}
	return out
}

// runRound executes one sample → cheap rung → promote → full rung
// cycle.
func (e *explorer) runRound(round int) error {
	trials := e.sampleRound()
	if len(trials) == 0 {
		return fmt.Errorf("dse: round %d sampled no candidates", round)
	}
	if err := e.cheapRung(round, trials); err != nil {
		return err
	}
	objs := make([]Objectives, len(trials))
	for i, t := range trials {
		objs[i] = t.Cheap
		e.sampler.observe(t.Params, t.Cheap)
	}
	k := (len(trials) + e.cfg.Eta - 1) / e.cfg.Eta
	promoted := promote(objs, k)
	survivors := make([]*Trial, len(promoted))
	for i, idx := range promoted {
		survivors[i] = trials[idx]
	}
	if err := e.fullRung(round, survivors); err != nil {
		return err
	}
	for _, t := range trials {
		e.res.Trials = append(e.res.Trials, *t)
	}
	e.res.Sampled += len(trials)
	e.res.Evaluated += len(survivors)
	return nil
}

// cheapRung prices every candidate without running its full flow: one
// synthesis-only batch on the fleet (through the shared cache, so
// repeated recipes settle as hits) gives real cell counts and netlist
// graphs; the GCN predictor plus a per-trial min-cost knapsack over
// the predicted runtimes prices the downstream deployment.
func (e *explorer) cheapRung(round int, trials []*Trial) error {
	g, err := designs.EvalDesign(e.cfg.Design, e.cfg.Scale)
	if err != nil {
		return err
	}
	cheap := cheapInstance(e.cfg.Fleet)
	jobs := make([]flow.Job, len(trials))
	for i, t := range trials {
		jobs[i] = flow.Job{
			Name:   fmt.Sprintf("r%d-%s", round, t.Recipe.Name),
			Design: g,
			Lib:    e.cfg.Lib,
			Options: []flow.Option{
				flow.WithStages(flow.Synthesis(synth.Options{Recipe: t.Recipe})),
			},
			Plan:      flow.StagePlan{flow.JobSynthesis: cheap},
			WorkScale: workScale,
		}
	}
	sched := &flow.Scheduler{
		Workers: e.cfg.Workers,
		Fleet:   e.cfg.Fleet.Clone(),
		Policy:  flow.PlanPolicy{},
		Cache:   e.cfg.Store,
	}
	run, err := sched.Run(nil, jobs)
	if err != nil {
		return err
	}
	e.res.SpentUSD += run.TotalCostUSD

	// Predict the downstream stages once per netlist not seen before
	// (predictions are per-graph independent, so batching only the new
	// ones moves no number); synthesis uses the input-AIG prediction.
	var fresh []uint64
	var graphs []*gcn.Graph
	for i := range trials {
		jr := run.Jobs[i]
		if jr.Err != nil {
			return fmt.Errorf("dse: cheap rung %s: %w", jr.Name, jr.Err)
		}
		trials[i].Cheap.QoR = float64(jr.Run.Netlist.NumCells())
		if id := jr.Run.NetlistHash(); e.preds[id] == nil {
			e.preds[id] = map[flow.JobKind][]float64{flow.JobSynthesis: e.synthSeconds}
			fresh = append(fresh, id)
			graphs = append(graphs, gcn.FromStarGraph(jr.Run.Netlist.StarGraph()))
		}
	}
	for _, k := range core.JobKinds() {
		if k == flow.JobSynthesis {
			continue
		}
		p, err := e.cfg.Predictor.PredictRuntimesBatch(k, graphs)
		if err != nil {
			return err
		}
		for i, id := range fresh {
			e.preds[id][k] = p[i]
		}
	}
	for i, t := range trials {
		classes, err := e.predictedClasses(e.preds[run.Jobs[i].Run.NetlistHash()])
		if err != nil {
			return err
		}
		deadline := int(math.Ceil(float64(mckp.MinTotalTime(classes)) * t.SlackFactor))
		sel, err := mckp.SolveMinCost(classes, deadline)
		if err != nil {
			return err
		}
		if !sel.Feasible {
			return fmt.Errorf("dse: cheap plan infeasible for %s at slack %g", t.Recipe.Name, t.SlackFactor)
		}
		t.Cheap.CostUSD = sel.TotalCost
		t.Cheap.RuntimeSec = float64(sel.TotalTime)
	}
	return nil
}

// predictedClasses builds a knapsack choice table from predicted
// per-configuration runtimes, priced like BuildDeploymentProblem:
// each stage's candidates are its recommended family's sizes at the
// predictor's vCPU grid. Predictions are floored at one second — the
// GCN extrapolates and must not emit non-positive runtimes into a DP
// over integral seconds.
func (e *explorer) predictedClasses(seconds map[flow.JobKind][]float64) ([]mckp.Class, error) {
	var classes []mckp.Class
	for _, k := range core.JobKinds() {
		secs := seconds[k]
		cl := mckp.Class{Name: k.String()}
		fam := core.RecommendedFamily(k)
		for vi, v := range e.cfg.Predictor.VCPUs {
			it, err := e.cfg.Catalog.Size(fam, v)
			if err != nil {
				return nil, err
			}
			s := secs[vi]
			if s < 1 {
				s = 1
			}
			cl.Items = append(cl.Items, mckp.Item{
				Label:   it.Name,
				TimeSec: int(math.Ceil(s)),
				Cost:    it.Cost(s),
			})
		}
		classes = append(classes, cl)
	}
	return classes, nil
}

// characterize fills e.chars for the trials' recipes no earlier round
// saw. One characterization keeps little more than one core busy, so
// the new ones run side by side on the Workers pool; memo and first
// error are taken after the barrier in first-appearance order.
func (e *explorer) characterize(trials []*Trial) error {
	var fresh []synth.Recipe
	for _, t := range trials {
		if _, seen := e.chars[t.Recipe.Name]; !seen {
			e.chars[t.Recipe.Name] = nil // filled after the barrier
			fresh = append(fresh, t.Recipe)
		}
	}
	errs := make([]error, len(fresh))
	chars := par.Map(par.Fixed(e.cfg.Workers), len(fresh), func(i int) (c *core.DesignCharacterization) {
		c, errs[i] = core.CharacterizeEval(e.cfg.Lib, e.cfg.Design, core.CharacterizeOptions{
			Scale:   e.cfg.Scale,
			Recipe:  fresh[i],
			Workers: e.cfg.Workers,
		})
		return c
	})
	for i, r := range fresh {
		if errs[i] != nil {
			return errs[i]
		}
		e.chars[r.Name] = chars[i]
	}
	return nil
}

// fullRung fully evaluates the promoted trials as one co-optimized
// batch on the bounded fleet. Each trial's nominal objectives (cost,
// runtime) come from its own fleet-restricted min-cost plan at its
// slack-derived deadline — solved cache-blind, so objectives never
// depend on store contents — and its QoR from the executed artifacts.
// The execution routes through the shared store: cached stages book no
// lease, which is the entire cache dividend, and per-second billing
// means queueing never changes a bill.
func (e *explorer) fullRung(round int, trials []*Trial) error {
	if len(trials) == 0 {
		return nil
	}
	if err := e.characterize(trials); err != nil {
		return err
	}
	specs := make([]core.BatchJobSpec, len(trials))
	for i, t := range trials {
		char := e.chars[t.Recipe.Name]
		prob, err := core.BuildDeploymentProblem(char, e.cfg.Catalog)
		if err != nil {
			return err
		}
		restricted, err := prob.Restrict(e.cfg.Fleet)
		if err != nil {
			return err
		}
		deadline := int(math.Ceil(float64(restricted.MinTime()) * t.SlackFactor))
		plan, deadline, err := solveWithRelax(restricted, deadline)
		if err != nil {
			return err
		}
		t.Full.CostUSD = plan.TotalCost
		t.Full.RuntimeSec = float64(plan.TotalTime)
		specs[i] = core.BatchJobSpec{
			Name:          fmt.Sprintf("r%d-t%d-%s", round, t.ID, t.Recipe.Name),
			Char:          char,
			Prob:          prob,
			DeadlineSec:   deadline,
			Recipe:        t.Recipe,
			ClockPeriodNs: t.ClockPeriodNs,
		}
	}
	bp, err := solveBatchWithRelax(specs, e.cfg.Fleet, core.BatchOptions{Cache: e.cfg.Store})
	if err != nil {
		return err
	}
	sched, err := core.ExecuteBatchPlan(e.cfg.Lib, specs, bp,
		core.CharacterizeOptions{Scale: e.cfg.Scale, Workers: e.cfg.Workers},
		e.cfg.Fleet.Clone(), false)
	if err != nil {
		return err
	}
	e.res.SpentUSD += sched.TotalCostUSD
	for i, t := range trials {
		jr := sched.Jobs[i]
		if jr.Err != nil {
			return fmt.Errorf("dse: full rung %s: %w", jr.Name, jr.Err)
		}
		t.Full.QoR = qor(jr.Run.Netlist.NumCells(), jr.Run.Timing.WNS, t.ClockPeriodNs)
		t.FullyEvaluated = true
		e.archive.Add(*t)
	}
	return nil
}

// qor folds timing quality into the cell count: a met clock scores the
// area alone; a violated one inflates it by the violation's share of
// the period, so a smaller-but-slower mapping cannot win on QoR alone.
func qor(cells int, wnsNs, clockNs float64) float64 {
	q := float64(cells)
	if wnsNs < 0 {
		q *= 1 - wnsNs/clockNs
	}
	return q
}

// solveWithRelax prices one trial's nominal plan, doubling an
// infeasible deadline up to three times before falling back to the
// always-feasible under-provision horizon. The relax sequence depends
// only on the choice table, never on the cache.
func solveWithRelax(prob *core.DeploymentProblem, deadline int) (*core.Plan, int, error) {
	d := deadline
	for attempt := 0; attempt < 3; attempt++ {
		plan, err := prob.Optimize(d)
		if err != nil {
			return nil, 0, err
		}
		if plan.Feasible {
			return plan, d, nil
		}
		d *= 2
	}
	d = prob.UnderProvision().TotalTime
	plan, err := prob.Optimize(d)
	if err != nil {
		return nil, 0, err
	}
	if !plan.Feasible {
		return nil, 0, fmt.Errorf("dse: %s infeasible even at the under-provision horizon", prob.Design)
	}
	return plan, d, nil
}

// solveBatchWithRelax co-optimizes the promoted batch, doubling every
// deadline up to three times on joint infeasibility (fleet contention
// can starve deadlines that are feasible solo), then dropping to
// deadline-free. Cache contents never influence the solve — specs
// carry no hit predictions — so warm and blind explorations price and
// execute identical plans.
func solveBatchWithRelax(specs []core.BatchJobSpec, fleet *cloud.Fleet, opts core.BatchOptions) (*core.BatchPlan, error) {
	bp, err := core.OptimizeBatchOpts(specs, fleet, opts)
	if err != nil {
		return nil, err
	}
	for attempt := 0; !bp.Feasible && attempt < 3; attempt++ {
		for i := range specs {
			specs[i].DeadlineSec *= 2
		}
		if bp, err = core.OptimizeBatchOpts(specs, fleet, opts); err != nil {
			return nil, err
		}
	}
	if !bp.Feasible {
		for i := range specs {
			specs[i].DeadlineSec = 0
		}
		if bp, err = core.OptimizeBatchOpts(specs, fleet, opts); err != nil {
			return nil, err
		}
		if !bp.Feasible {
			return nil, fmt.Errorf("dse: deadline-free batch infeasible on the fleet")
		}
	}
	return bp, nil
}
