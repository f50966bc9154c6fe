package designs

import (
	"fmt"
	"sort"

	"edacloud/internal/aig"
)

// generator builds one benchmark at the given scale.
type generator func(scale float64) *aig.Graph

var benchmarks = map[string]generator{
	// Arithmetic (EPFL arithmetic suite).
	"adder":      genAdder,
	"bar":        genBar,
	"div":        genDiv,
	"hyp":        genHyp,
	"log2":       genLog2,
	"max":        genMax,
	"multiplier": genMultiplier,
	"sin":        genSin,
	"sqrt":       genSqrt,
	"square":     genSquare,
	// Control (EPFL random/control suite + OpenCores-style blocks).
	"arbiter":   genArbiter,
	"cavlc":     genCavlc,
	"dec":       genDec,
	"i2c":       genI2C,
	"int2float": genInt2Float,
	"mem_ctrl":  genMemCtrl,
	"priority":  genPriority,
	"voter":     genVoter,
}

// BenchmarkNames returns the 18 benchmark names in sorted order.
func BenchmarkNames() []string {
	names := make([]string, 0, len(benchmarks))
	for n := range benchmarks {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Benchmark generates the named benchmark at the given scale (1 =
// EPFL-suite-like size). The graph is swept of dead logic before
// return, so its size statistics are meaningful.
func Benchmark(name string, scale float64) (*aig.Graph, error) {
	gen, ok := benchmarks[name]
	if !ok {
		return nil, fmt.Errorf("designs: unknown benchmark %q", name)
	}
	if err := CheckScale(scale); err != nil {
		return nil, err
	}
	g := gen(scale)
	swept, _ := g.Sweep()
	swept.Name = name
	return swept, nil
}

// MaxScale is the largest scale Benchmark builds: adder at 1000×, about
// 1.4 M AND nodes, is the largest million-gate size the passes are sized
// for.
const MaxScale = 1000

// CheckScale refuses a scale that is not in (0, MaxScale]: zero,
// negative, NaN, infinite or too large to build.
func CheckScale(scale float64) error {
	if !(scale > 0 && scale <= MaxScale) {
		return fmt.Errorf("designs: scale %g outside (0, %d]", scale, MaxScale)
	}
	return nil
}

// MustBenchmark is Benchmark that panics on error.
func MustBenchmark(name string, scale float64) *aig.Graph {
	g, err := Benchmark(name, scale)
	if err != nil {
		panic(err)
	}
	return g
}
