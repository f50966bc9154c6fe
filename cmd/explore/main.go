// Command explore runs the DSE autopilot: a seeded multi-objective
// search over synthesis recipes, STA clock periods and deadline slack,
// evaluated on a bounded simulated fleet with GCN-predicted runtimes
// pruning the cheap rung and the real flow engines scoring the
// survivors. It prints the Pareto front over (QoR, cost, runtime) and,
// with -cache, the artifact-store dedup that lets a fixed budget buy
// more trials.
//
// Usage:
//
//	explore -design dyn_node -seed 3 -rounds 3 -budget 0.5 -cache
//
// Every printed quantity is simulated and deterministic: the same seed
// produces byte-identical output at any -workers value.
package main

import (
	"flag"
	"fmt"
	"os"

	"edacloud/internal/cache"
	"edacloud/internal/cloud"
	"edacloud/internal/core"
	"edacloud/internal/dse"
	"edacloud/internal/gcn"
	"edacloud/internal/synth"
	"edacloud/internal/techlib"
)

func main() {
	design := flag.String("design", "dyn_node", "evaluation design to explore")
	scale := flag.Float64("scale", 0.02, "design scale factor")
	fleetSpec := flag.String("fleet", "gp.1x=1,gp.2x=1,mem.1x=1,mem.2x=1", "bounded fleet (type=count,...)")
	seed := flag.Int64("seed", 1, "search seed")
	rounds := flag.Int("rounds", 3, "successive-halving rounds")
	population := flag.Int("population", 4, "candidates sampled per round")
	eta := flag.Int("eta", 4, "halving factor (ceil(population/eta) survive the cheap rung)")
	maxPasses := flag.Int("max-passes", 3, "longest sampled recipe")
	budget := flag.Float64("budget", 0, "simulated budget in USD (0 = unlimited)")
	useCache := flag.Bool("cache", false, "route trials through a shared artifact store")
	workers := flag.Int("workers", 0, "host fan-out bound (0 = all cores; results identical)")
	trainScale := flag.Float64("train-scale", 0.05, "predictor training-set scale")
	epochs := flag.Int("epochs", 5, "predictor training epochs")
	flag.Parse()
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected argument %q: every option is a -flag", flag.Arg(0)))
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"rounds", *rounds}, {"population", *population}, {"eta", *eta}, {"max-passes", *maxPasses}} {
		if f.v < 0 {
			fail(fmt.Errorf("-%s %d: must not be negative", f.name, f.v))
		}
	}
	if !(*budget >= 0) {
		fail(fmt.Errorf("-budget %v: must not be negative (0 = unlimited)", *budget))
	}
	if *epochs < 1 {
		fail(fmt.Errorf("-epochs %d: need at least 1", *epochs))
	}

	lib := techlib.Default14nm()
	catalog := cloud.DefaultCatalog()
	fleet, err := cloud.ParseFleetSpec(catalog, *fleetSpec)
	if err != nil {
		fail(err)
	}

	fmt.Printf("DSE autopilot: %s at scale %g on fleet %s\n", *design, *scale, *fleetSpec)
	fmt.Printf("Training runtime predictor (3 benchmarks x 1 recipe at scale %g, %d epochs)...\n",
		*trainScale, *epochs)
	ds, err := core.BuildDataset(lib, core.DatasetOptions{
		Benchmarks: []string{"adder", "bar", "dec"},
		Recipes:    synth.StandardRecipes[:1],
		Scale:      *trainScale,
		Workers:    *workers,
	})
	if err != nil {
		fail(err)
	}
	pred, _, err := core.TrainPredictor(ds, gcn.Config{
		Hidden1: 8, Hidden2: 6, FCHidden: 6, LR: 3e-3, Epochs: *epochs,
		Workers: *workers,
	}, 0.34, 7)
	if err != nil {
		fail(err)
	}

	var store *cache.Store
	if *useCache {
		store = cache.New(0)
	}
	budgetLabel := "unlimited"
	if *budget > 0 {
		budgetLabel = fmt.Sprintf("$%.4f", *budget)
	}
	fmt.Printf("Exploring: %d rounds x population %d, eta %d, seed %d, budget %s\n\n",
		*rounds, *population, *eta, *seed, budgetLabel)

	res, err := dse.Explore(dse.Config{
		Design:     *design,
		Scale:      *scale,
		MaxPasses:  *maxPasses,
		Population: *population,
		Eta:        *eta,
		Rounds:     *rounds,
		BudgetUSD:  *budget,
		Seed:       *seed,
		Workers:    *workers,
		Fleet:      fleet,
		Catalog:    catalog,
		Lib:        lib,
		Predictor:  pred,
		Store:      store,
	})
	if err != nil {
		fail(err)
	}

	prev := 0.0
	for i, cum := range res.RoundSpentUSD {
		fmt.Printf("round %d: spent $%.4f (cumulative $%.4f)\n", i+1, cum-prev, cum)
		prev = cum
	}
	fmt.Printf("\nExplored %d candidates in %d rounds: %d full evaluations, $%.4f simulated spend\n",
		res.Sampled, res.Rounds, res.Evaluated, res.SpentUSD)
	if store != nil {
		st := res.CacheStats
		fmt.Printf("Artifact cache: %d hits / %d misses (%.1f%% hit rate)\n",
			st.Hits, st.Misses, 100*st.HitRate())
	}

	fmt.Printf("\nPareto front over (QoR, cost, runtime) — no point dominates another:\n")
	fmt.Printf("  %-12s %8s %6s %10s %10s %9s\n", "recipe", "clock_ns", "slack", "qor", "cost_usd", "runtime_s")
	for _, tr := range res.Front {
		fmt.Printf("  %-12s %8.2f %6.2f %10.1f %10.4f %9.0f\n",
			tr.Recipe.Name, tr.ClockPeriodNs, tr.SlackFactor,
			tr.Full.QoR, tr.Full.CostUSD, tr.Full.RuntimeSec)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "explore:", err)
	os.Exit(1)
}
