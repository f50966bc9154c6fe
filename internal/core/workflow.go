package core

import (
	"fmt"

	"edacloud/internal/aig"
	"edacloud/internal/flow"
	"edacloud/internal/gcn"
	"edacloud/internal/netlist"
	"edacloud/internal/synth"
	"edacloud/internal/techlib"
)

// This file closes the loop of the paper's Fig. 1: the GCN predictions
// (Sec. III.B) feed the deployment optimizer (Sec. III.C) directly, so
// a new design can be planned without profiling it first — the entire
// point of training the predictor.

// DesignGraphs carries the two model inputs for one design: the AIG
// for the synthesis model and the mapped netlist's star graph for the
// physical-design models.
type DesignGraphs struct {
	Name    string
	AIG     *gcn.Graph
	Netlist *gcn.Graph
}

// GraphsForDesign prepares predictor inputs for a raw design: it runs
// a synthesis-only partial flow (uninstrumented, raw mapping) to
// obtain the netlist graph.
func GraphsForDesign(g *aig.Graph, lib *techlib.Library) (*DesignGraphs, error) {
	p := flow.NewPipeline(flow.WithStages(flow.Synthesis(synth.Options{})))
	rc, err := p.Run(g, lib)
	if err != nil {
		return nil, err
	}
	return &DesignGraphs{
		Name:    g.Name,
		AIG:     gcn.FromStarGraph(netlist.AIGGraph(g)),
		Netlist: gcn.FromStarGraph(rc.Netlist.StarGraph()),
	}, nil
}

// PredictFlowRuntimes returns the predicted per-vCPU runtimes of all
// four jobs for a design, in seconds.
func (p *Predictor) PredictFlowRuntimes(dg *DesignGraphs) (map[JobKind][]float64, error) {
	out := map[JobKind][]float64{}
	for _, k := range JobKinds() {
		g := dg.Netlist
		if k == JobSynthesis {
			g = dg.AIG
		}
		if g == nil {
			return nil, fmt.Errorf("core: design %s lacks a graph for %v", dg.Name, k)
		}
		rt, err := p.PredictRuntimes(k, g)
		if err != nil {
			return nil, err
		}
		out[k] = rt
	}
	return out, nil
}
