// Command predict regenerates the paper's runtime-prediction
// experiment (Fig. 5): it builds the benchmark-times-recipes dataset,
// trains one GCN per EDA application on a design-disjoint split, and
// reports per-application average percentage error plus the signed
// error histogram the paper plots.
//
// Usage:
//
//	predict -scale 0.06 -recipes 4 -epochs 60 -hidden1 64 -hidden2 32
//
// The paper's full hyperparameters (256/128/128 hidden units, 200
// epochs, all 8 recipes) are available through the flags; the defaults
// are sized to finish in a few minutes of CPU time.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"edacloud/internal/core"
	"edacloud/internal/gcn"
	"edacloud/internal/synth"
	"edacloud/internal/techlib"
)

func main() {
	scale := flag.Float64("scale", 0.06, "benchmark scale factor")
	recipes := flag.Int("recipes", 4, "number of logic-optimization recipes (max 8)")
	benchmarks := flag.Int("benchmarks", 18, "number of benchmarks (max 18)")
	epochs := flag.Int("epochs", 60, "training epochs (paper: 200)")
	hidden1 := flag.Int("hidden1", 64, "first graph-conv width (paper: 256)")
	hidden2 := flag.Int("hidden2", 32, "second graph-conv width (paper: 128)")
	fcHidden := flag.Int("fc", 32, "fully-connected width (paper: 128)")
	lr := flag.Float64("lr", 1e-3, "Adam learning rate (paper: 1e-4)")
	testFrac := flag.Float64("test", 0.2, "held-out design fraction")
	seed := flag.Int64("seed", 1, "split and init seed")
	bins := flag.Int("bins", 12, "error histogram bins")
	workers := flag.Int("workers", 0, "bound for the per-(benchmark, recipe) flow fan-out and for predictor training (0 = all cores; output identical)")
	flag.Parse()
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected argument %q: every option is a -flag", flag.Arg(0)))
	}
	if *recipes < 1 {
		fail(fmt.Errorf("-recipes %d: need at least 1", *recipes))
	}
	if *epochs < 1 {
		fail(fmt.Errorf("-epochs %d: need at least 1", *epochs))
	}
	if !(*testFrac >= 0 && *testFrac < 1) {
		fail(fmt.Errorf("-test %v: the held-out fraction must lie in [0, 1)", *testFrac))
	}

	lib := techlib.Default14nm()
	names := benchNames(*benchmarks)
	nRecipes := *recipes
	if nRecipes > len(synth.StandardRecipes) {
		nRecipes = len(synth.StandardRecipes)
	}

	fmt.Printf("Building dataset: %d benchmarks x %d recipes at scale %g...\n",
		len(names), nRecipes, *scale)
	ds, err := core.BuildDataset(lib, core.DatasetOptions{
		Benchmarks: names,
		Recipes:    synth.StandardRecipes[:nRecipes],
		Scale:      *scale,
		Workers:    *workers,
	})
	if err != nil {
		fail(err)
	}
	fmt.Printf("Dataset: %d netlists, %d runtime labels\n\n", ds.NumNetlists(), ds.NumLabels())

	cfg := gcn.Config{
		Hidden1: *hidden1, Hidden2: *hidden2, FCHidden: *fcHidden,
		LR: *lr, Epochs: *epochs,
		Workers: *workers,
	}
	fmt.Printf("Training per-application GCNs (%d epochs)...\n", *epochs)
	_, eval, err := core.TrainPredictor(ds, cfg, *testFrac, *seed)
	if err != nil {
		fail(err)
	}

	fmt.Println("\nFigure 5: runtime prediction error on unseen designs")
	for _, k := range core.JobKinds() {
		je := eval.PerJob[k]
		fmt.Printf("\n%s: avg |error| = %.1f%% over %d test netlists\n",
			k, je.AvgAbsPctErr, len(je.Records))
		edges, counts := je.Histogram(*bins)
		if edges == nil {
			continue
		}
		maxCount := 1
		for _, c := range counts {
			if c > maxCount {
				maxCount = c
			}
		}
		for i, c := range counts {
			bar := strings.Repeat("#", c*40/maxCount)
			fmt.Printf("  [%9.2fs, %9.2fs) %4d %s\n", edges[i], edges[i+1], c, bar)
		}
	}
}

func benchNames(n int) []string {
	all := []string{
		"adder", "bar", "div", "hyp", "log2", "max", "multiplier", "sin", "sqrt", "square",
		"arbiter", "cavlc", "dec", "i2c", "int2float", "mem_ctrl", "priority", "voter",
	}
	if n > len(all) {
		n = len(all)
	}
	if n < 2 {
		n = 2
	}
	return all[:n]
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "predict:", err)
	os.Exit(1)
}
