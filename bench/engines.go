package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"time"

	"edacloud/internal/aig"
	"edacloud/internal/designs"
	"edacloud/internal/flow"
	"edacloud/internal/netlist"
	"edacloud/internal/par"
	"edacloud/internal/perf"
	"edacloud/internal/synth"
	"edacloud/internal/techlib"
)

// simRounds is the number of random-stimulus rounds of every
// equivalence check.
const simRounds = 8

// stageSpans names the span opened for each pipeline stage event.
var stageSpans = map[flow.JobKind]string{
	flow.JobSynthesis: "synth.synthesize",
	flow.JobPlacement: "place.place",
	flow.JobRouting:   "route.route",
	flow.JobSTA:       "sta.analyze",
}

// newProbe is the instrumentation edaflow attaches to every stage.
func newProbe(ands int) *perf.Probe {
	return flow.NewJobProbe(probeVCPUs, flow.EstimateCells(ands))
}

// checkOptimized runs the oracles every synthesized graph must pass:
// random-simulation equivalence with the input, the output count, and
// an AIGER round trip that preserves the structural fingerprint. It
// returns a hash of the graph's AIGER text.
func checkOptimized(res *opResult, tr *tracer, seed int64, in, opt *aig.Graph) uint64 {
	sp := tr.start("aig.sim_equiv")
	equiv := aig.SimEquiv(in, opt, seed, simRounds)
	tr.end(sp)
	res.checkf(equiv, "optimized graph is not simulation-equivalent to the input")
	res.checkf(opt.NumOutputs() == in.NumOutputs(), "outputs %d, input has %d", opt.NumOutputs(), in.NumOutputs())
	var buf bytes.Buffer
	if err := opt.WriteASCII(&buf); err != nil {
		res.checkf(false, "writing AIGER: %v", err)
		return 0
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	back, err := aig.ReadASCII(&buf)
	if err != nil {
		res.checkf(false, "reading AIGER back: %v", err)
		return 0
	}
	res.checkf(back.Fingerprint() == opt.Fingerprint(), "AIGER round trip changed the fingerprint")
	return h.Sum64()
}

// setupFlowFull builds the edaflow single-design path: the resyn2
// recipe and a fresh probe per stage, over six evaluation designs.
func setupFlowFull(c config, tr *tracer) (*plan, error) {
	lib := techlib.Default14nm()
	recipe, err := synth.RecipeByName("resyn2")
	if err != nil {
		return nil, err
	}
	p := &plan{}
	smallest := 0
	for i, d := range c.size.flowDesigns {
		sp := tr.start("designs.eval_design")
		g, err := designs.EvalDesign(d.name, d.scale)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		if i == 0 || g.NumAnds() < smallest {
			p.warm, smallest = i, g.NumAnds()
		}
		p.round = append(p.round, item{name: d.id(), run: func(tr *tracer) opResult {
			return runFlow(c, tr, g, lib, recipe)
		}})
	}
	return p, nil
}

func runFlow(c config, tr *tracer, g *aig.Graph, lib *techlib.Library, recipe synth.Recipe) opResult {
	res := opResult{attempted: 1}
	opts := []flow.Option{
		flow.WithRecipe(recipe),
		flow.WithNewProbe(func(flow.JobKind) *perf.Probe { return newProbe(g.NumAnds()) }),
	}
	if tr != nil {
		var open int
		opts = append(opts, flow.WithEvents(func(e flow.Event) {
			if e.Type == flow.StageStarted {
				open = tr.start(stageSpans[e.Kind])
			} else {
				tr.end(open)
			}
		}))
	}
	var rc *flow.RunContext
	var err error
	timeOp(&res, tr, func() {
		sp := tr.start("flow.pipeline")
		rc, err = flow.NewPipeline(opts...).Run(g.Clone(), lib)
		tr.end(sp)
	})
	res.lat = []time.Duration{res.use.wall}
	if err != nil {
		res.fail("pipeline", err)
		return res
	}
	res.units = 1
	if rc.Netlist == nil || rc.Placement == nil || rc.Routing == nil || rc.Timing == nil || rc.Optimized == nil {
		res.checkf(false, "an artifact is missing after the full flow")
		return res
	}
	res.checkf(rc.Timing.Endpoints > 0, "timing has no endpoints")
	aiger := checkOptimized(&res, tr, c.seed, g, rc.Optimized)

	simS, minstrs := simSeconds(rc.Reports[flow.JobSynthesis], rc.Reports[flow.JobPlacement],
		rc.Reports[flow.JobRouting], rc.Reports[flow.JobSTA])
	res.counters = map[string]float64{
		"synth.ands_in":    float64(g.NumAnds()),
		"synth.ands_out":   float64(rc.Optimized.NumAnds()),
		"synth.cells":      float64(len(rc.Netlist.Cells)),
		"place.hpwl_um":    rc.Placement.HPWL,
		"route.wirelength": float64(rc.Routing.Wirelength),
		"route.overflow":   float64(rc.Routing.Overflow),
		"route.rrr_iters":  float64(rc.Routing.Iterations),
		"sta.wns_ns":       rc.Timing.WNS,
		"flow.sim_s":       simS,
		"perf.sim_minstrs": minstrs,
	}
	res.digest = digestOf("%016x %016x %v %d %d %d %v %v %v", aiger, rc.Netlist.Fingerprint(),
		rc.Placement.HPWL, rc.Routing.Wirelength, rc.Routing.Overflow, rc.Routing.Iterations,
		rc.Timing.WNS, simS, minstrs)
	return res
}

// synthInput is one synth-large design: the graph the oracle compares
// against, and the AIGER text the op parses.
type synthInput struct {
	graph *aig.Graph
	text  []byte
	parts int
}

// setupSynthLarge generates the large designs and holds their AIGER
// text in memory.
func setupSynthLarge(c config, tr *tracer) (*plan, error) {
	lib := techlib.Default14nm()
	recipe, err := synth.RecipeByName("resyn2")
	if err != nil {
		return nil, err
	}
	p := &plan{}
	smallest := 0
	for i, d := range c.size.synthInputs {
		sp := tr.start("designs.benchmark")
		g, err := designs.Benchmark(d.name, d.scale)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := g.WriteASCII(&buf); err != nil {
			return nil, err
		}
		sp = tr.start("aig.partition_cones")
		parts := g.PartitionCones(synth.PartitionGrain).NumParts()
		tr.end(sp)
		in := synthInput{graph: g, text: buf.Bytes(), parts: parts}
		if i == 0 || g.NumAnds() < smallest {
			p.warm, smallest = i, g.NumAnds()
		}
		p.round = append(p.round, item{name: fmt.Sprintf("%s.x%g", d.name, d.scale), run: func(tr *tracer) opResult {
			return runSynth(c, tr, in, lib, recipe)
		}})
	}
	return p, nil
}

func runSynth(c config, tr *tracer, in synthInput, lib *techlib.Library, recipe synth.Recipe) opResult {
	res := opResult{attempted: 1}
	var opt *aig.Graph
	var nl *netlist.Netlist
	var report *perf.Report
	var err error
	timeOp(&res, tr, func() {
		if tr == nil {
			opt, nl, report, err = synthOp(in.text, lib, recipe)
		} else {
			opt, nl, err = synthOpTraced(tr, in.text, lib, recipe)
		}
	})
	res.lat = []time.Duration{res.use.wall}
	if err != nil {
		res.fail("synthesis", err)
		return res
	}
	res.units = float64(in.graph.NumAnds()) / 1000
	aiger := checkOptimized(&res, tr, c.seed, in.graph, opt)

	res.counters = map[string]float64{
		"synth.ands_in":  float64(in.graph.NumAnds()),
		"synth.ands_out": float64(opt.NumAnds()),
		"synth.cells":    float64(len(nl.Cells)),
		"aig.bytes_read": float64(len(in.text)),
		"aig.partitions": float64(in.parts),
	}
	if report != nil {
		res.counters["flow.sim_s"], res.counters["perf.sim_minstrs"] = simSeconds(report)
	}
	// The digest covers the AIGER text of the result, so a traced op whose
	// output differed from the untraced op's by a byte shows as a changed
	// digest.
	res.digest = digestOf("%016x %016x", aiger, nl.Fingerprint())
	return res
}

// synthOp is the timed synth-large op: parse, optimize and map, write.
func synthOp(text []byte, lib *techlib.Library, recipe synth.Recipe) (*aig.Graph, *netlist.Netlist, *perf.Report, error) {
	g, err := aig.ReadASCII(bytes.NewReader(text))
	if err != nil {
		return nil, nil, nil, err
	}
	out, err := synth.Synthesize(g, lib, synth.Options{
		Recipe:      recipe,
		StageConfig: par.StageConfig{Probe: newProbe(g.NumAnds())},
	})
	if err != nil {
		return nil, nil, nil, err
	}
	if err := out.Optimized.WriteASCII(io.Discard); err != nil {
		return nil, nil, nil, err
	}
	return out.Optimized, out.Netlist, out.Report, nil
}

// synthOpTraced does synthOp's work through the per-pass entry points,
// so that each pass and the mapper get a span of their own.
func synthOpTraced(tr *tracer, text []byte, lib *techlib.Library, recipe synth.Recipe) (*aig.Graph, *netlist.Netlist, error) {
	sp := tr.start("aig.read_ascii")
	g, err := aig.ReadASCII(bytes.NewReader(text))
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	probe := newProbe(g.NumAnds())
	for _, pass := range recipe.Passes {
		sp = tr.start("synth.pass." + pass.String())
		g, err = synth.RunPass(g, pass, probe, 0)
		tr.end(sp)
		if err != nil {
			return nil, nil, err
		}
	}
	sp = tr.start("synth.map")
	nl, err := synth.MapToCells(g, lib, false, probe)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = tr.start("aig.write_ascii")
	err = g.WriteASCII(io.Discard)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	return g, nl, nil
}
