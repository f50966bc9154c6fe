package synth

import (
	"fmt"

	"edacloud/internal/aig"
	"edacloud/internal/netlist"
	"edacloud/internal/par"
	"edacloud/internal/perf"
	"edacloud/internal/techlib"
)

// PassKind identifies one AIG optimization pass.
type PassKind int

// The optimization passes.
const (
	PassBalance PassKind = iota
	PassRewrite
	PassRefactor
)

func (p PassKind) String() string {
	switch p {
	case PassBalance:
		return "balance"
	case PassRewrite:
		return "rewrite"
	case PassRefactor:
		return "refactor"
	}
	return fmt.Sprintf("pass(%d)", int(p))
}

// Recipe is a named sequence of optimization passes. Different recipes
// produce structurally different netlists of the same function, which
// is how the paper's dataset pairs one design with many physical
// structures (its Sec. IV: 18 benchmarks -> 330 unique netlists).
type Recipe struct {
	Name   string
	Passes []PassKind
}

// StandardRecipes mirrors the usual ABC script families: from no
// optimization through light and heavy effort.
var StandardRecipes = []Recipe{
	{"raw", nil},
	{"b", []PassKind{PassBalance}},
	{"rw", []PassKind{PassRewrite}},
	{"rf", []PassKind{PassRefactor}},
	{"resyn", []PassKind{PassBalance, PassRewrite, PassRewrite, PassBalance}},
	{"resyn2", []PassKind{
		PassBalance, PassRewrite, PassRefactor, PassBalance,
		PassRewrite, PassRewrite, PassBalance,
	}},
	{"compress", []PassKind{PassBalance, PassRewrite, PassBalance, PassRefactor, PassBalance}},
	{"deep", []PassKind{
		PassBalance, PassRefactor, PassRewrite, PassBalance,
		PassRefactor, PassRewrite, PassBalance,
	}},
}

// RecipeByName returns the named standard recipe.
func RecipeByName(name string) (Recipe, error) {
	for _, r := range StandardRecipes {
		if r.Name == name {
			return r, nil
		}
	}
	return Recipe{}, fmt.Errorf("synth: unknown recipe %q", name)
}

// runPass dispatches one optimization pass, reporting its measured
// parallel structure.
func runPass(g *aig.Graph, p PassKind, probe *perf.Probe, pool *par.Pool, rs *runScratch) (*aig.Graph, passStats, error) {
	var ng *aig.Graph
	var stats passStats
	switch p {
	case PassBalance:
		ng, stats = balancePool(g, probe, pool, rs)
	case PassRewrite:
		ng, stats = rewritePool(g, probe, pool, rs)
	case PassRefactor:
		ng, stats = refactorPool(g, probe, pool, rs)
	default:
		return nil, stats, fmt.Errorf("synth: unknown pass %v", p)
	}
	return ng, stats, nil
}

// RunPass applies a single optimization pass with an explicit worker
// bound (0 means GOMAXPROCS). The result is bit-identical for every
// worker count; benchmarks and conformance tests use this to pin the
// serial baseline against the full pool.
func RunPass(g *aig.Graph, p PassKind, probe *perf.Probe, workers int) (*aig.Graph, error) {
	ng, _, err := runPass(g, p, probe, par.Fixed(workers), new(runScratch))
	return ng, err
}

// optimize applies a recipe to the AIG, recording one perf phase per
// pass into report when probe and report are non-nil. pool runs the
// passes' cut enumeration and cone-parallel rebuilds, and rs is the
// scratch every pass of the recipe reuses. Every pass but the last
// sweeps its result into one of the run's two pass graphs, which the
// next pass reads; only the recipe's result is a fresh graph, so
// neither g nor the result is ever recycled.
func optimize(g *aig.Graph, recipe Recipe, probe *perf.Probe, report *perf.Report, pool *par.Pool, rs *runScratch) (*aig.Graph, error) {
	cur := g
	for i, p := range recipe.Passes {
		rs.dst = nil
		if i < len(recipe.Passes)-1 {
			rs.dst = rs.passGraph(i)
		}
		next, stats, err := runPass(cur, p, probe, pool, rs)
		if err != nil {
			return nil, err
		}
		cur = next
		if report != nil {
			// The phase's Amdahl profile is measured, not modeled: the
			// cut sweeps and per-partition cone rebuilds scale across
			// the partition count, while partitioning, shard merging
			// and the final sweep serialize.
			report.AddPhase(probe.TakePhaseMeasured(p.String(), stats.parallelInstrs, stats.chunks))
		}
	}
	return cur, nil
}

// Options configures Synthesize.
type Options struct {
	// Recipe is the optimization script; zero value means "raw".
	Recipe Recipe
	// RegisterOutputs inserts a DFF behind every primary output.
	RegisterOutputs bool
	// StageConfig supplies the shared execution knobs: Workers bounds
	// the worker pool for the recipe passes' and the mapper's
	// intra-level cut enumeration (0 means GOMAXPROCS; results are
	// identical for every value), and Probe receives performance
	// events (nil runs uninstrumented).
	par.StageConfig
}

// Result bundles the outputs of a synthesis run.
type Result struct {
	Netlist *netlist.Netlist
	// Optimized is the post-recipe AIG that was mapped.
	Optimized *aig.Graph
	// Report profiles the run, one phase per pass plus mapping.
	Report *perf.Report
}

// Synthesize optimizes the AIG with the given recipe and maps it to
// the library, producing the netlist consumed by placement, routing
// and STA.
func Synthesize(g *aig.Graph, lib *techlib.Library, opts Options) (*Result, error) {
	report := &perf.Report{Job: "synthesis"}
	probe := opts.Probe

	pool := par.Fixed(opts.Workers)
	rs := new(runScratch)
	opt, err := optimize(g, opts.Recipe, probe, report, pool, rs)
	if err != nil {
		return nil, err
	}
	rs.releaseForMapping()
	nl, err := mapToCells(opt, lib, opts.RegisterOutputs, probe, pool, rs)
	if err != nil {
		return nil, err
	}
	// Matching is per-node parallel, but the covering extraction and
	// netlist construction serialize on shared structures.
	report.AddPhase(probe.TakePhase("map", 0.60, opt.NumAnds()/64+1))
	return &Result{Netlist: nl, Optimized: opt, Report: report}, nil
}
