package dse

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"edacloud/internal/cache"
	"edacloud/internal/cloud"
	"edacloud/internal/core"
	"edacloud/internal/gcn"
	"edacloud/internal/synth"
	"edacloud/internal/techlib"
)

var lib = techlib.Default14nm()

var (
	predOnce sync.Once
	predOut  *core.Predictor
	predErr  error
)

// testPredictor trains one tiny runtime predictor for the whole test
// binary — predictions only need to be deterministic and positive for
// the search mechanics under test, not accurate.
func testPredictor(t *testing.T) *core.Predictor {
	t.Helper()
	predOnce.Do(func() {
		ds, err := core.BuildDataset(lib, core.DatasetOptions{
			Benchmarks: []string{"adder", "bar", "dec"},
			Recipes:    synth.StandardRecipes[:1],
			Scale:      0.05,
		})
		if err != nil {
			predErr = err
			return
		}
		cfg := gcn.Config{Hidden1: 8, Hidden2: 6, FCHidden: 6, LR: 3e-3, Epochs: 5}
		predOut, _, predErr = core.TrainPredictor(ds, cfg, 0.34, 7)
	})
	if predErr != nil {
		t.Fatal(predErr)
	}
	return predOut
}

func testFleet(t *testing.T) *cloud.Fleet {
	t.Helper()
	fleet, err := cloud.ParseFleetSpec(cloud.DefaultCatalog(), "gp.1x=1,gp.2x=1,mem.1x=1,mem.2x=1")
	if err != nil {
		t.Fatal(err)
	}
	return fleet
}

// testConfig builds a small but complete exploration: two rounds of
// four candidates, one full evaluation per round.
func testConfig(t *testing.T, seed int64, workers int, store *cache.Store) Config {
	t.Helper()
	return Config{
		Design:     "dyn_node",
		Scale:      0.02,
		MaxPasses:  3,
		Population: 4,
		Eta:        4,
		Rounds:     2,
		Seed:       seed,
		Workers:    workers,
		Fleet:      testFleet(t),
		Catalog:    cloud.DefaultCatalog(),
		Lib:        lib,
		Predictor:  testPredictor(t),
		Store:      store,
	}
}

// TestExploreRefusesNegativeCounts: a negative recipe length,
// population, halving factor, round count or budget is refused by name
// before any design is built (a negative MaxPasses used to panic in the
// sampler, a negative Eta ran no full evaluations).
func TestExploreRefusesNegativeCounts(t *testing.T) {
	for _, bad := range []func(*Config){
		func(c *Config) { c.MaxPasses = -2 },
		func(c *Config) { c.Population = -3 },
		func(c *Config) { c.Eta = -1 },
		func(c *Config) { c.Rounds = -1 },
		func(c *Config) { c.BudgetUSD = -0.5 },
		func(c *Config) { c.BudgetUSD = math.NaN() },
	} {
		cfg := Config{
			Design:    "dyn_node",
			Fleet:     testFleet(t),
			Catalog:   cloud.DefaultCatalog(),
			Lib:       lib,
			Predictor: &core.Predictor{},
		}
		bad(&cfg)
		_, err := Explore(cfg)
		if err == nil || !strings.Contains(err.Error(), "must not be negative") {
			t.Errorf("MaxPasses %d, Population %d, Eta %d, Rounds %d, BudgetUSD %v: got %v, want a refusal",
				cfg.MaxPasses, cfg.Population, cfg.Eta, cfg.Rounds, cfg.BudgetUSD, err)
		}
	}
}

// TestExploreDeterministicAcrossWorkers: the whole result — trials,
// objectives, archive, bills — is a pure function of the seed, for any
// host worker count.
func TestExploreDeterministicAcrossWorkers(t *testing.T) {
	for _, seed := range []int64{1, 4} {
		base, err := Explore(testConfig(t, seed, 1, nil))
		if err != nil {
			t.Fatal(err)
		}
		if base.Sampled == 0 || base.Evaluated == 0 || len(base.Front) == 0 {
			t.Fatalf("seed %d: degenerate exploration: %+v", seed, base)
		}
		for _, workers := range []int{2, 8} {
			got, err := Explore(testConfig(t, seed, workers, nil))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(base, got) {
				t.Fatalf("seed %d: workers=%d diverged from workers=1\nbase: %+v\ngot:  %+v",
					seed, workers, base, got)
			}
		}
	}
}

// TestExploreFrontNonDominated: the returned Pareto front never
// contains a dominated point, and re-running the same seed reproduces
// the archive bit-for-bit (seed determinism of the archive).
func TestExploreFrontNonDominated(t *testing.T) {
	for _, seed := range []int64{2, 9} {
		res, err := Explore(testConfig(t, seed, 4, nil))
		if err != nil {
			t.Fatal(err)
		}
		for i := range res.Front {
			if !res.Front[i].FullyEvaluated {
				t.Fatalf("seed %d: archived trial %d never fully evaluated", seed, res.Front[i].ID)
			}
			for j := range res.Front {
				if i != j && res.Front[i].Full.Dominates(res.Front[j].Full) {
					t.Fatalf("seed %d: front point %d dominates front point %d", seed, i, j)
				}
			}
		}
		again, err := Explore(testConfig(t, seed, 4, nil))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Front, again.Front) {
			t.Fatalf("seed %d: archive not seed-deterministic", seed)
		}
	}
}

// TestExploreObjectivesCacheIndependent: a warm store changes what an
// exploration bills, never what its trials score — trial sequence,
// objectives and archive are bit-identical warm vs blind, and the warm
// bill never exceeds the blind bill over the same rounds.
func TestExploreObjectivesCacheIndependent(t *testing.T) {
	blind, err := Explore(testConfig(t, 3, 4, nil))
	if err != nil {
		t.Fatal(err)
	}
	store := cache.New(0)
	warm, err := Explore(testConfig(t, 3, 4, store))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(blind.Trials, warm.Trials) {
		t.Fatal("store contents leaked into trial objectives")
	}
	if !reflect.DeepEqual(blind.Front, warm.Front) {
		t.Fatal("store contents leaked into the archive")
	}
	if warm.SpentUSD > blind.SpentUSD+1e-9 {
		t.Fatalf("warm bill $%.6f exceeds blind bill $%.6f", warm.SpentUSD, blind.SpentUSD)
	}
	if warm.CacheStats.Hits == 0 {
		t.Fatal("warm exploration never hit its own cache")
	}
}

// TestWarmCacheNeverCompletesFewerTrials is the tentpole's economic
// claim, stated as a 50-seed property: under the same simulated
// budget, a cache-enabled exploration completes at least as many full
// trial evaluations as a cache-blind one — never fewer — and strictly
// more for some seeds. The budget is set per seed to exactly the blind
// run's first-round spend, the point where any cache dividend decides
// whether a second round is affordable.
func TestWarmCacheNeverCompletesFewerTrials(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep")
	}
	strict := 0
	for seed := int64(0); seed < 50; seed++ {
		pilot, err := Explore(testConfig(t, seed, 4, nil))
		if err != nil {
			t.Fatal(err)
		}
		budget := pilot.RoundSpentUSD[0]

		blindCfg := testConfig(t, seed, 4, nil)
		blindCfg.BudgetUSD = budget
		blind, err := Explore(blindCfg)
		if err != nil {
			t.Fatal(err)
		}
		warmCfg := testConfig(t, seed, 4, cache.New(0))
		warmCfg.BudgetUSD = budget
		warm, err := Explore(warmCfg)
		if err != nil {
			t.Fatal(err)
		}

		if blind.Rounds != 1 {
			t.Fatalf("seed %d: blind run should stop after round 1 at its own round-1 spend, ran %d", seed, blind.Rounds)
		}
		if warm.Evaluated < blind.Evaluated {
			t.Fatalf("seed %d: warm completed %d trials, blind %d — cache must never cost trials",
				seed, warm.Evaluated, blind.Evaluated)
		}
		if warm.Evaluated > blind.Evaluated {
			strict++
		}
		// The rounds both runs execute are the same search: the shared
		// prefix of the trial sequence is bit-identical.
		n := len(blind.Trials)
		if len(warm.Trials) < n {
			t.Fatalf("seed %d: warm sampled fewer trials than blind", seed)
		}
		if !reflect.DeepEqual(blind.Trials, warm.Trials[:n]) {
			t.Fatalf("seed %d: warm trial prefix diverged from blind", seed)
		}
	}
	if strict == 0 {
		t.Fatal("cache dividend never bought a single extra round across 50 seeds")
	}
	t.Logf("warm strictly ahead on %d/50 seeds", strict)
}
