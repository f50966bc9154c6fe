package core

import (
	"testing"

	"edacloud/internal/cloud"
	"edacloud/internal/designs"
	"edacloud/internal/flow"
	"edacloud/internal/gcn"
	"edacloud/internal/netlist"
	"edacloud/internal/synth"
)

// TestEndToEndWorkflow exercises the paper's entire Fig. 1 pipeline:
// build a dataset, train the predictor, predict runtimes for a design
// outside the training set, and optimize its cloud deployment from the
// predictions alone.
func TestEndToEndWorkflow(t *testing.T) {
	ds, err := BuildDataset(lib, DatasetOptions{
		Benchmarks: []string{"adder", "dec", "cavlc", "int2float", "priority", "bar"},
		Recipes:    synth.StandardRecipes[:2],
		Scale:      0.06,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := gcn.Config{Hidden1: 24, Hidden2: 12, FCHidden: 12, LR: 3e-3, Epochs: 60}
	pred, _, err := TrainPredictor(ds, cfg, 0.2, 11)
	if err != nil {
		t.Fatal(err)
	}

	// A design the predictor has never seen in any form. Its two model
	// inputs are built the way dse's cheap rung builds them: the input
	// AIG for synthesis, the mapped netlist of a synthesis-only flow for
	// the physical-design stages.
	g := designs.MustBenchmark("i2c", 0.06)
	rc, err := flow.NewPipeline(flow.WithStages(flow.Synthesis(synth.Options{}))).Run(g, lib)
	if err != nil {
		t.Fatal(err)
	}
	aigGraph := gcn.FromStarGraph(netlist.AIGGraph(g))
	netGraph := gcn.FromStarGraph(rc.Netlist.StarGraph())
	if aigGraph.X.Rows == 0 || netGraph.X.Rows < g.NumInputs()+g.NumOutputs() {
		t.Fatalf("model inputs too small: AIG %d rows, netlist %d rows", aigGraph.X.Rows, netGraph.X.Rows)
	}
	runtimes := map[flow.JobKind][]float64{}
	for _, k := range flow.JobKinds() {
		in := netGraph
		if k == flow.JobSynthesis {
			in = aigGraph
		}
		if runtimes[k], err = pred.PredictRuntimes(k, in); err != nil {
			t.Fatal(err)
		}
		if len(runtimes[k]) != 4 {
			t.Fatalf("%v: %d predictions", k, len(runtimes[k]))
		}
		for _, v := range runtimes[k] {
			if v < 0 {
				t.Fatalf("%v: negative predicted runtime %g", k, v)
			}
		}
	}

	prob, err := BuildPredictedDeploymentProblem(g.Name, pred.VCPUs, runtimes, cloud.DefaultCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if len(prob.Classes) != 4 {
		t.Fatalf("classes = %d", len(prob.Classes))
	}
	// The instance families must still follow the characterization
	// recommendations.
	if prob.Stages[int(flow.JobSynthesis)][0].Instance.Family != cloud.GeneralPurpose ||
		prob.Stages[int(flow.JobPlacement)][0].Instance.Family != cloud.MemoryOptimized {
		t.Fatal("family recommendations lost in prediction path")
	}

	minTime := prob.MinTime()
	plan, err := prob.Optimize(2 * minTime)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible {
		t.Fatal("relaxed deadline infeasible")
	}
	if plan.TotalTime > 2*minTime {
		t.Fatalf("plan %ds exceeds deadline %ds", plan.TotalTime, 2*minTime)
	}
	na, err := prob.Optimize(minTime / 2)
	if err != nil {
		t.Fatal(err)
	}
	_ = na // may or may not be feasible depending on per-second floors
	over := prob.OverProvision()
	under := prob.UnderProvision()
	if !over.Feasible || !under.Feasible {
		t.Fatal("fixed policies infeasible on predicted problem")
	}
}

func TestPredictedProblemRejectsBadInputs(t *testing.T) {
	if _, err := BuildPredictedDeploymentProblem("x", []int{1, 2, 4, 8}, nil, cloud.DefaultCatalog()); err == nil {
		t.Fatal("missing predictions accepted")
	}
}
