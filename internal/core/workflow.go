// Package core implements the paper's end-to-end workflow (its
// Fig. 1): characterize the four EDA applications under different VM
// configurations, predict per-configuration runtimes for unseen
// designs with the GCN model, and optimize cloud deployments with the
// multi-choice knapsack solver so deadlines are met at minimum cost.
//
// Flow execution itself lives in internal/flow (Stage/Pipeline/
// Scheduler), which also declares the four stage kinds (flow.JobKind);
// this package layers the characterization, prediction and
// optimization experiments on top.
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

// JobKinds forwards to flow.JobKinds. It stays only because the bench
// module calls it; everything else says flow.JobKinds.
func JobKinds() []flow.JobKind { return flow.JobKinds() }

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
func (p *Predictor) PredictFlowRuntimes(dg *DesignGraphs) (map[flow.JobKind][]float64, error) {
	out := map[flow.JobKind][]float64{}
	for _, k := range flow.JobKinds() {
		g := dg.Netlist
		if k == flow.JobSynthesis {
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
