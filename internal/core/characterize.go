package core

import (
	"fmt"
	"math"
	"slices"

	"edacloud/internal/aig"
	"edacloud/internal/designs"
	"edacloud/internal/flow"
	"edacloud/internal/par"
	"edacloud/internal/perf"
	"edacloud/internal/place"
	"edacloud/internal/route"
	"edacloud/internal/synth"
	"edacloud/internal/techlib"
)

// CharacterizeOptions configures the Fig. 2 / Fig. 3 experiments.
type CharacterizeOptions struct {
	// Scale shrinks the generated designs so characterization completes
	// in seconds; 0 means 0.05. The cache hierarchy is sized to the
	// design (flow.NewSweepProbe) so that working-set-to-cache ratios
	// — the quantity behind the paper's Fig. 2b — are preserved, and
	// runtimes are extrapolated back through Machine.WorkScale.
	Scale float64
	// Recipe is the synthesis script; zero value means raw mapping.
	Recipe synth.Recipe
	// Workers bounds the worker pools inside the flow's kernels — one
	// flow run models every size in vcpuGrid — so Workers: 1 is a true
	// serial baseline; 0 means GOMAXPROCS. Results are identical for
	// every value.
	Workers int
}

func (o CharacterizeOptions) withDefaults() CharacterizeOptions {
	if o.Scale == 0 {
		o.Scale = 0.05
	}
	if o.Recipe.Name == "" {
		// Production flows run a full optimization script; its iterative
		// passes are what make synthesis the second-longest job in the
		// paper's Fig. 2d.
		o.Recipe, _ = synth.RecipeByName("resyn2")
	}
	return o
}

// vcpuGrid is the paper's set of machine configurations: each job
// confined to 1, 2, 4 and 8 vCPUs of one Xeon host. Speedups are
// against its first entry, one vCPU.
var vcpuGrid = []int{1, 2, 4, 8}

// workScaleFor extrapolates simulated runtime to the full-size design.
// EDA runtimes grow superlinearly in instance count (longer routes,
// more solver iterations), hence the 1.15 exponent, and a reduced-
// scale simulation omits constant per-flow effort (detailed routing,
// timing-closure iterations, multi-corner analysis), hence the fixed
// effort factor. Both only rescale absolute seconds; per-configuration
// ratios, which every experiment's shape rests on, are untouched.
func workScaleFor(targetInstances, cells int) float64 {
	ratio := float64(targetInstances) / float64(max(cells, 1))
	if ratio < 1 {
		ratio = 1
	}
	return math.Pow(ratio, 1.15) * 400
}

// JobProfile is the characterization of one job under one VM config.
type JobProfile struct {
	Kind          flow.JobKind
	VCPUs         int
	Report        *perf.Report
	Counters      perf.Counters
	Seconds       float64
	Speedup       float64 // versus the 1-vCPU run of the same job
	BranchMissPct float64
	CacheMissPct  float64
	FPVectorPct   float64
}

// DesignCharacterization is the full Fig. 2 dataset for one design.
type DesignCharacterization struct {
	Design string
	Cells  int
	// WorkScale extrapolates profiled runtimes from the simulated
	// design size to the full-scale target instance count.
	WorkScale float64
	// Profiles[vcpuIndex][job].
	Profiles [][]JobProfile
	VCPUs    []int
}

// Profile returns the profile of a job at a vCPU count.
func (d *DesignCharacterization) Profile(k flow.JobKind, vcpus int) (JobProfile, error) {
	for vi, v := range d.VCPUs {
		if v == vcpus {
			return d.Profiles[vi][int(k)], nil
		}
	}
	return JobProfile{}, fmt.Errorf("core: no profile at %d vCPUs", vcpus)
}

// machineFor builds the cycle model of a VM with the given vCPUs and
// AVX availability, embedding the design-size extrapolation factor.
func machineFor(vcpus int, avx bool, workScale float64) perf.Machine {
	m := perf.Xeon14(vcpus)
	if !avx {
		m = m.WithoutAVX()
	}
	m.WorkScale = workScale
	return m
}

// sweepFlow runs the flow once under probes that model a VM of every
// size in vcpus (flow.NewSweepProbe) and returns the run and a reader
// of a stage's report as a VM of one of those sizes profiles it.
func sweepFlow(g *aig.Graph, lib *techlib.Library, recipe synth.Recipe, workers int, vcpus []int) (*flow.RunContext, func(flow.JobKind, int) *perf.Report, error) {
	probes := map[flow.JobKind]*perf.Probe{}
	estCells := flow.EstimateCells(g.NumAnds())
	rc, err := flow.NewPipeline(
		flow.WithRecipe(recipe),
		flow.WithWorkers(workers),
		flow.WithNewProbe(func(k flow.JobKind) *perf.Probe {
			probes[k] = flow.NewSweepProbe(estCells, vcpus...)
			return probes[k]
		}),
	).Run(g, lib)
	if err != nil {
		return nil, nil, err
	}
	return rc, func(k flow.JobKind, v int) *perf.Report { return probes[k].ReportFor(rc.Reports[k], v) }, nil
}

// CharacterizeEval profiles all four jobs of a named evaluation design
// at every vCPU count of vcpuGrid — the experiment behind the
// paper's Fig. 2a-d. The paper ran each configuration on an instance
// of its own, as real hardware demands; here a configuration is an LLC
// capacity, so the flow runs once with a model of each (≈ 15 % more wall
// than one plain run, a third of the CPU of a run per configuration).
func CharacterizeEval(lib *techlib.Library, designName string, opts CharacterizeOptions) (*DesignCharacterization, error) {
	opts = opts.withDefaults()
	g, err := designs.EvalDesign(designName, opts.Scale)
	if err != nil {
		return nil, err
	}
	spec, err := designs.EvalInfo(designName)
	if err != nil {
		return nil, err
	}
	rc, reportAt, err := sweepFlow(g, lib, opts.Recipe, opts.Workers, vcpuGrid)
	if err != nil {
		return nil, err
	}
	out := &DesignCharacterization{Design: designName, VCPUs: slices.Clone(vcpuGrid), Cells: rc.Netlist.NumCells()}
	out.WorkScale = workScaleFor(spec.TargetInstances, out.Cells)
	base := make([]float64, len(flow.JobKinds()))
	for vi, v := range vcpuGrid {
		var row []JobProfile
		for _, k := range flow.JobKinds() {
			report := reportAt(k, v)
			c := report.Total()
			secs := machineFor(v, true, out.WorkScale).Seconds(report)
			if vi == 0 {
				base[k] = secs
			}
			row = append(row, JobProfile{
				Kind:          k,
				VCPUs:         v,
				Report:        report,
				Counters:      c,
				Seconds:       secs,
				Speedup:       base[k] / secs,
				BranchMissPct: c.BranchMissPct(),
				CacheMissPct:  c.CacheMissPct(),
				FPVectorPct:   c.FPVectorPct(),
			})
		}
		out.Profiles = append(out.Profiles, row)
	}
	return out, nil
}

// RoutingSpeedupCurve measures routing speedup at every vCPU count from
// 1 to vcpuGrid's largest for one design — one line of the paper's
// Fig. 3; curve[i] is the speedup at i+1 vCPUs. Synthesis, placement
// and routing each run once; routing's probe models every size.
func RoutingSpeedupCurve(lib *techlib.Library, designName string, opts CharacterizeOptions) ([]float64, error) {
	opts = opts.withDefaults()
	g, err := designs.EvalDesign(designName, opts.Scale)
	if err != nil {
		return nil, err
	}
	sres, err := synth.Synthesize(g, lib, synth.Options{Recipe: opts.Recipe})
	if err != nil {
		return nil, err
	}
	pl, _, err := place.Place(sres.Netlist, place.Options{})
	if err != nil {
		return nil, err
	}
	vcpus := make([]int, vcpuGrid[len(vcpuGrid)-1])
	for vi := range vcpus {
		vcpus[vi] = vi + 1
	}
	probe := flow.NewSweepProbe(sres.Netlist.NumCells(), vcpus...)
	_, report, err := route.Route(sres.Netlist, pl, route.Options{StageConfig: par.StageConfig{Probe: probe}})
	if err != nil {
		return nil, err
	}
	curve := make([]float64, len(vcpus))
	var base float64
	for vi, v := range vcpus {
		secs := machineFor(v, true, 1).Seconds(probe.ReportFor(report, v))
		if vi == 0 {
			base = secs
		}
		curve[vi] = base / secs
	}
	return curve, nil
}
