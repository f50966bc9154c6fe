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

// MaxScale is the largest scale Benchmark builds: MillionFamily's
// adder.x1000 is the largest design anything here asks for.
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

// MillionSpec names one member of the million-gate benchmark family: an
// existing generator pushed 100-1000x past its EPFL-like size.
type MillionSpec struct {
	Name  string
	Scale float64
	// ApproxAnds is the rough AND count realized at this scale, for
	// sizing reports and budget decisions; the exact count is
	// deterministic but generator-specific.
	ApproxAnds int
}

// ID returns the family member's stable identifier, e.g. "adder.x100".
func (s MillionSpec) ID() string { return fmt.Sprintf("%s.x%g", s.Name, s.Scale) }

// MillionFamily returns the million-gate benchmark family in ascending
// size order, from ~141k to ~1.4M AND nodes. The members are chosen
// from generators whose size scales linearly with width and whose
// output counts stay high enough for cone partitioning to produce
// real design-level parallelism (which rules out single-output voter
// and the logarithmically scaling decoder).
func MillionFamily() []MillionSpec {
	return []MillionSpec{
		{Name: "adder", Scale: 100, ApproxAnds: 141_000},
		{Name: "priority", Scale: 100, ApproxAnds: 274_000},
		{Name: "max", Scale: 100, ApproxAnds: 307_000},
		{Name: "bar", Scale: 50, ApproxAnds: 473_000},
		{Name: "adder", Scale: 1000, ApproxAnds: 1_408_000},
	}
}
