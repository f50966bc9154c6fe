package main

import (
	"fmt"
	"strings"
	"time"

	"edacloud/internal/cache"
	"edacloud/internal/cloud"
	"edacloud/internal/core"
	"edacloud/internal/dse"
	"edacloud/internal/synth"
	"edacloud/internal/techlib"
)

// The search's shape. The sampler and predictor seeds are part of the
// workload and not drawn from -seed: one exploration's host cost varies
// by a factor of two with the sampler's seed, which would read as noise
// between runs.
const (
	exploreFleetSpec = "gp.1x=1,gp.2x=1,mem.1x=1,mem.2x=1"
	exploreRounds    = 3
	exploreEta       = 3
	exploreMaxPasses = 3
	exploreSeed      = 3
	predictorSeed    = 3
	predictorTest    = 0.2
)

// setupExploreDSE builds the predictor's dataset once; every op then
// trains a predictor on it and explores one design.
func setupExploreDSE(c config, tr *tracer) (*plan, error) {
	lib := techlib.Default14nm()
	catalog := cloud.DefaultCatalog()
	fleet, err := cloud.ParseFleetSpec(catalog, exploreFleetSpec)
	if err != nil {
		return nil, err
	}
	var recipes []synth.Recipe
	for _, name := range []string{"resyn", "resyn2"} {
		r, err := synth.RecipeByName(name)
		if err != nil {
			return nil, err
		}
		recipes = append(recipes, r)
	}
	sp := tr.start("core.build_dataset")
	ds, err := core.BuildDataset(lib, core.DatasetOptions{
		Benchmarks: c.size.datasetBenchmarks,
		Recipes:    recipes,
		Scale:      c.size.datasetScale,
	})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	p := &plan{}
	for _, design := range c.size.exploreDesigns {
		p.round = append(p.round, item{name: design, run: func(tr *tracer) opResult {
			return runExplore(c, tr, ds, dse.Config{
				Design:     design,
				Scale:      c.size.exploreScale,
				MaxPasses:  exploreMaxPasses,
				Population: c.size.population,
				Eta:        exploreEta,
				Rounds:     exploreRounds,
				Seed:       exploreSeed,
				Fleet:      fleet,
				Catalog:    catalog,
				Lib:        lib,
			})
		}})
	}
	return p, nil
}

// runExplore is the timed explore-dse op: one session of the predict
// and explore binaries' path, through a fresh artifact store.
func runExplore(c config, tr *tracer, ds *core.Dataset, cfg dse.Config) opResult {
	res := opResult{attempted: 1}
	var eval *core.PredictionEval
	var out *dse.Result
	var err error
	timeOp(&res, tr, func() {
		sp := tr.start("core.train_predictor")
		cfg.Predictor, eval, err = core.TrainPredictor(ds, c.size.gcn, predictorTest, predictorSeed)
		tr.end(sp)
		if err != nil {
			return
		}
		cfg.Store = cache.New(0)
		sp = tr.start("dse.explore")
		out, err = dse.Explore(cfg)
		tr.end(sp)
	})
	res.lat = []time.Duration{res.use.wall}
	if err != nil {
		res.fail("session", err)
		return res
	}
	res.units = float64(out.Sampled)

	res.checkf(out.Sampled == cfg.Rounds*cfg.Population, "sampled %d trials, want %d", out.Sampled, cfg.Rounds*cfg.Population)
	res.checkf(len(out.Front) > 0, "empty Pareto front")
	for i, a := range out.Front {
		for j, b := range out.Front {
			res.checkf(i == j || !a.Full.Dominates(b.Full), "front point %d dominates point %d", i, j)
		}
	}

	var errPct float64
	trainGraphs := 0
	for _, k := range core.JobKinds() {
		errPct += eval.PerJob[k].AvgAbsPctErr / float64(len(core.JobKinds()))
		train, _ := ds.SplitByDesign(k, predictorTest, predictorSeed)
		trainGraphs += len(train)
	}
	st := out.CacheStats
	res.counters = map[string]float64{
		// A round sums its ops' counters; an accuracy wants their mean.
		"gcn.accuracy_pct":  (100 - errPct) / float64(len(c.size.exploreDesigns)),
		"gcn.train_graphs":  float64(trainGraphs),
		"dse.sampled":       float64(out.Sampled),
		"dse.evaluated":     float64(out.Evaluated),
		"dse.front_size":    float64(len(out.Front)),
		"dse.sim_spend_usd": out.SpentUSD,
		"cache.hits":        float64(st.Hits),
		"cache.misses":      float64(st.Misses),
		"cache.bytes_live":  float64(st.BytesLive),
	}
	var front strings.Builder
	for _, t := range out.Front {
		fmt.Fprintf(&front, "%s/%v/%v=%v;", t.Recipe.Name, t.ClockPeriodNs, t.SlackFactor, t.Full)
	}
	res.digest = digestOf("%v %d %d %v %v %s", errPct, out.Sampled, out.Evaluated, out.SpentUSD, st, front.String())
	return res
}
