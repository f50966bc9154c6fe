package core

import (
	"math"
	"testing"

	"edacloud/internal/cloud"
	"edacloud/internal/flow"
	"edacloud/internal/mckp"
)

// TestPlanExecutionMatchesPrediction is the contract between the MCKP
// layer and the execution layer: running a deployment plan through the
// fleet scheduler (each stage on its knapsack-chosen instance type)
// must reproduce the optimizer's per-stage runtime and cost
// predictions. The probes, machine models and work scale are shared
// between characterization and execution, so the match is exact up to
// integral-seconds rounding in the knapsack items.
func TestPlanExecutionMatchesPrediction(t *testing.T) {
	catalog := cloud.DefaultCatalog()
	char := characterized(t, "dyn_node")
	prob, err := BuildDeploymentProblem(char, catalog)
	if err != nil {
		t.Fatal(err)
	}
	// A mid-tightness deadline so the plan mixes instance sizes.
	minTime := prob.MinTime()
	under := prob.UnderProvision()
	plan, err := prob.Optimize((minTime + under.TotalTime) / 2)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible {
		t.Fatal("mid deadline infeasible")
	}

	sched, err := ExecutePlan(lib, char, plan, charOpts, nil)
	if err != nil {
		t.Fatal(err)
	}
	j := sched.Jobs[0]
	if j.Err != nil {
		t.Fatal(j.Err)
	}
	if len(j.Stages) != len(plan.Picks) {
		t.Fatalf("%d simulated stages for %d picks", len(j.Stages), len(plan.Picks))
	}
	var simCost float64
	for _, st := range j.Stages {
		pick, err := plan.Pick(st.Kind)
		if err != nil {
			t.Fatal(err)
		}
		if st.Type.Name != pick.Instance.Name {
			t.Fatalf("stage %s ran on %s, plan chose %s", st.Kind, st.Type.Name, pick.Instance.Name)
		}
		// The simulated stage runtime replays the same profiled report
		// through the same machine model the optimizer predicted with.
		if math.Abs(st.Seconds-pick.Seconds) > 1e-6*(1+pick.Seconds) {
			t.Fatalf("stage %s simulated %gs, predicted %gs", st.Kind, st.Seconds, pick.Seconds)
		}
		if math.Abs(st.CostUSD-pick.Cost) > 1e-9 {
			t.Fatalf("stage %s billed %g, predicted %g", st.Kind, st.CostUSD, pick.Cost)
		}
		simCost += st.CostUSD
	}
	if math.Abs(simCost-plan.TotalCost) > 1e-9 {
		t.Fatalf("simulated bill %g, plan cost %g", simCost, plan.TotalCost)
	}
	// The knapsack's integral stage times bound the simulated flow:
	// busy time within the (ceil-rounded) predicted total.
	if j.Seconds > float64(plan.TotalTime) || j.Seconds < float64(plan.TotalTime)-float64(len(plan.Picks)) {
		t.Fatalf("simulated busy time %gs vs plan total %ds", j.Seconds, plan.TotalTime)
	}
	// A lone job on the plan's minimal fleet never queues.
	if j.WaitSec != 0 {
		t.Fatalf("lone plan job waited %gs", j.WaitSec)
	}
}

// TestPlanExportAndFleet: plans export to the executable StagePlan /
// fleet forms and agree with the mckp-level selection's labels.
func TestPlanExportAndFleet(t *testing.T) {
	char := characterized(t, "dyn_node")
	prob, err := BuildDeploymentProblem(char, cloud.DefaultCatalog())
	if err != nil {
		t.Fatal(err)
	}
	plan := prob.OverProvision()
	sp, err := plan.StagePlan()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp) != len(flow.JobKinds()) {
		t.Fatalf("stage plan covers %d kinds", len(sp))
	}
	sel, err := mckp.SolveMinCost(prob.Classes, prob.UnderProvision().TotalTime)
	if err != nil {
		t.Fatal(err)
	}
	cheap, err := prob.Optimize(prob.UnderProvision().TotalTime)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range sel.Pick {
		cl := prob.Classes[i]
		if cl.Name != flow.JobKinds()[i].String() {
			t.Fatalf("class %q out of order", cl.Name)
		}
		if cl.Items[j].Label != cheap.Picks[i].Instance.Name {
			t.Fatalf("picked label %q, plan instance %q", cl.Items[j].Label, cheap.Picks[i].Instance.Name)
		}
	}
	fleet, err := plan.Fleet()
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet.Instances) == 0 || len(fleet.Instances) > len(plan.Picks) {
		t.Fatalf("plan fleet has %d instances", len(fleet.Instances))
	}
	bad := &Plan{Feasible: false}
	if _, err := bad.StagePlan(); err == nil {
		t.Fatal("infeasible plan exported a stage plan")
	}
	if _, err := bad.Fleet(); err == nil {
		t.Fatal("infeasible plan exported a fleet")
	}
}
