package designs

import (
	"fmt"
	"math/rand"

	"edacloud/internal/aig"
)

// EvalSpec describes one of the eight evaluation designs of the
// paper's Fig. 3. Blocks lists the benchmark sub-blocks composing the
// design and their relative sizing; Glue adds FSM-style random logic
// between blocks, as SoC toplevels have.
type EvalSpec struct {
	Name string
	// TargetInstances is the approximate full-scale (scale=1) mapped
	// instance count; the paper's designs span a few hundred to 200k.
	TargetInstances int
	blocks          []blockSpec
	glueGates       int
	seed            int64
}

type blockSpec struct {
	bench string
	scale float64 // relative to the design's overall scale
	count int
}

// evalSpecs orders the paper's designs from smallest to largest, with
// block mixes sketching their real microarchitectures: NoC routers are
// arbitration+mux logic, aes is wide XOR-heavy datapath, the RISC-V
// cores combine ALUs with control, jpeg is multiplier-rich DCT
// datapath, and the big cores add wide arithmetic and large control.
var evalSpecs = []EvalSpec{
	{
		Name: "dyn_node", TargetInstances: 600, seed: 101,
		blocks: []blockSpec{
			{"arbiter", 0.12, 2}, {"priority", 0.2, 1}, {"dec", 0.5, 1},
		},
		glueGates: 120,
	},
	{
		Name: "aes", TargetInstances: 12000, seed: 102,
		blocks: []blockSpec{
			{"cavlc", 2.0, 4}, {"dec", 0.9, 2}, {"bar", 0.4, 2}, {"i2c", 1.2, 2},
		},
		glueGates: 2500,
	},
	{
		Name: "ibex", TargetInstances: 20000, seed: 103,
		blocks: []blockSpec{
			{"adder", 0.25, 2}, {"bar", 0.25, 1}, {"priority", 0.3, 1},
			{"dec", 0.8, 1}, {"i2c", 1.5, 2}, {"multiplier", 0.3, 1},
		},
		glueGates: 3000,
	},
	{
		Name: "jpeg", TargetInstances: 40000, seed: 104,
		blocks: []blockSpec{
			{"multiplier", 0.45, 4}, {"adder", 0.4, 4}, {"bar", 0.3, 2}, {"cavlc", 2.5, 2},
		},
		glueGates: 5000,
	},
	{
		Name: "swerv", TargetInstances: 60000, seed: 105,
		blocks: []blockSpec{
			{"adder", 0.5, 3}, {"multiplier", 0.45, 2}, {"bar", 0.5, 2},
			{"priority", 0.5, 2}, {"mem_ctrl", 0.35, 1}, {"i2c", 2.0, 2},
		},
		glueGates: 8000,
	},
	{
		Name: "ariane", TargetInstances: 100000, seed: 106,
		blocks: []blockSpec{
			{"adder", 1.0, 3}, {"multiplier", 0.6, 2}, {"div", 0.5, 1},
			{"bar", 0.8, 2}, {"mem_ctrl", 0.5, 1}, {"dec", 1.0, 2}, {"i2c", 2.5, 2},
		},
		glueGates: 12000,
	},
	{
		Name: "coyote", TargetInstances: 150000, seed: 107,
		blocks: []blockSpec{
			{"adder", 1.2, 4}, {"multiplier", 0.7, 3}, {"sqrt", 0.5, 1},
			{"bar", 1.0, 2}, {"mem_ctrl", 0.6, 1}, {"voter", 0.4, 1}, {"i2c", 3.0, 2},
		},
		glueGates: 16000,
	},
	{
		Name: "sparc_core", TargetInstances: 200000, seed: 108,
		blocks: []blockSpec{
			{"adder", 1.5, 4}, {"multiplier", 0.8, 3}, {"div", 0.8, 1},
			{"sqrt", 0.6, 1}, {"bar", 1.2, 2}, {"mem_ctrl", 0.8, 1},
			{"dec", 1.2, 2}, {"priority", 1.5, 2}, {"i2c", 4.0, 2},
		},
		glueGates: 20000,
	},
}

// EvalDesignNames returns the eight evaluation design names, smallest
// first (the order of the paper's Fig. 3 legend).
func EvalDesignNames() []string {
	names := make([]string, len(evalSpecs))
	for i, s := range evalSpecs {
		names[i] = s.Name
	}
	return names
}

// EvalInfo returns the spec of a named evaluation design.
func EvalInfo(name string) (EvalSpec, error) {
	for _, s := range evalSpecs {
		if s.Name == name {
			return s, nil
		}
	}
	return EvalSpec{}, fmt.Errorf("designs: unknown evaluation design %q", name)
}

// EvalDesign composes the named evaluation design at the given scale.
// Sub-block inputs are shared through a common input bus (as SoC
// operand/result buses are), and glue logic stitches block outputs
// together, producing a single connected graph.
func EvalDesign(name string, scale float64) (*aig.Graph, error) {
	spec, err := EvalInfo(name)
	if err != nil {
		return nil, err
	}
	if err := CheckScale(scale); err != nil {
		return nil, err
	}
	// Each block builds at its own factor times scale; refuse the scale
	// before any block would be refused.
	for _, b := range spec.blocks {
		if err := CheckScale(b.scale * scale); err != nil {
			return nil, fmt.Errorf("designs: %s at scale %g: its %s blocks: %w", name, scale, b.bench, err)
		}
	}
	rng := rand.New(rand.NewSource(spec.seed))
	g := aig.New(name)

	// A shared operand bus feeds all blocks; its width follows the
	// widest block demand.
	bus := inputWord(g, "bus", 160)

	var blockOuts []aig.Lit
	for _, b := range spec.blocks {
		sub := MustBenchmark(b.bench, b.scale*scale)
		for inst := 0; inst < b.count; inst++ {
			// Each instance taps the bus at a rotating offset, with a
			// few instance-unique inputs mixed in for asymmetry.
			offset := rng.Intn(len(bus))
			inMap := make([]aig.Lit, sub.NumInputs())
			for i := range inMap {
				if rng.Intn(8) == 0 {
					inMap[i] = g.AddInput(fmt.Sprintf("%s%d_i%d", b.bench, inst, i))
				} else {
					inMap[i] = bus[(offset+i)%len(bus)]
				}
			}
			outs := appendGraph(g, sub, inMap)
			blockOuts = append(blockOuts, outs...)
		}
	}

	// Glue logic mixes block outputs, as toplevel interconnect and
	// control would.
	glue := int(float64(spec.glueGates) * scale)
	if glue < 16 {
		glue = 16
	}
	glueOuts := randomLogic(g, rng, blockOuts, glue, 6, min(64, len(blockOuts)))
	for i, o := range glueOuts {
		g.AddOutput(o, fmt.Sprintf("glue_o%d", i))
	}
	// Export a sample of direct block outputs too.
	stride := len(blockOuts)/200 + 1
	for i := 0; i < len(blockOuts); i += stride {
		g.AddOutput(blockOuts[i], fmt.Sprintf("blk_o%d", i))
	}

	swept, _ := g.Sweep()
	swept.Name = name
	return swept, nil
}

// MustEvalDesign is EvalDesign that panics on error.
func MustEvalDesign(name string, scale float64) *aig.Graph {
	g, err := EvalDesign(name, scale)
	if err != nil {
		panic(err)
	}
	return g
}

// appendGraph copies sub into g, substituting inMap for sub's primary
// inputs, and returns the literals corresponding to sub's outputs.
func appendGraph(g *aig.Graph, sub *aig.Graph, inMap []aig.Lit) []aig.Lit {
	old2new := make([]aig.Lit, sub.NumVars())
	old2new[0] = aig.False
	for i, v := range sub.InputVars() {
		old2new[v] = inMap[i]
	}
	sub.TopoAnds(func(v int, f0, f1 aig.Lit) {
		a := old2new[f0.Var()].NotIf(f0.IsNeg())
		b := old2new[f1.Var()].NotIf(f1.IsNeg())
		old2new[v] = g.And(a, b)
	})
	outs := make([]aig.Lit, sub.NumOutputs())
	for i, o := range sub.Outputs() {
		outs[i] = old2new[o.Var()].NotIf(o.IsNeg())
	}
	return outs
}
