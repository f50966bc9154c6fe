package core

import (
	"math"
	"testing"

	"edacloud/internal/cloud"
)

// contendedBatchSpecs characterizes the named designs and wraps them
// as batch jobs with the given per-job deadlines (0 = none), against
// the default catalog.
func contendedBatchSpecs(t *testing.T, names []string, deadlines []int) []BatchJobSpec {
	t.Helper()
	catalog := cloud.DefaultCatalog()
	specs := make([]BatchJobSpec, len(names))
	chars := map[string]*DesignCharacterization{}
	for i, name := range names {
		char, ok := chars[name]
		if !ok {
			char = characterized(t, name)
			chars[name] = char
		}
		prob, err := BuildDeploymentProblem(char, catalog)
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = BatchJobSpec{
			Name: name + "#" + string(rune('0'+i)),
			Char: char,
			Prob: prob,
		}
		if deadlines != nil {
			specs[i].DeadlineSec = deadlines[i]
		}
	}
	return specs
}

// TestBatchPlanExecutionMatchesPrediction is the batch analogue of
// TestPlanExecutionMatchesPrediction and the contract the co-optimizer
// rests on: the contention-aware forecast (the scheduler's placement
// engine replayed over predicted stage runtimes) must match the real
// fleet simulation of the co-optimized plans exactly — per-job starts,
// waits, finishes, busy times and bills — and the batch plan must not
// cost more than N independently optimized plans run on the same
// fleet.
func TestBatchPlanExecutionMatchesPrediction(t *testing.T) {
	specs := contendedBatchSpecs(t, []string{"dyn_node", "aes", "ibex"}, nil)
	// Two machines for three 4-stage flows: synthesis and STA contend
	// for the lone general-purpose instance, placement and routing for
	// the lone memory-optimized one.
	fleet, err := cloud.ParseFleetSpec(cloud.DefaultCatalog(), "gp.2x=1,mem.2x=1")
	if err != nil {
		t.Fatal(err)
	}

	bp, err := OptimizeBatch(specs, fleet)
	if err != nil {
		t.Fatal(err)
	}
	if !bp.Feasible {
		t.Fatal("deadline-free batch infeasible")
	}
	if bp.Forecast == nil || len(bp.Forecast.Jobs) != len(specs) {
		t.Fatalf("forecast missing or short: %+v", bp.Forecast)
	}
	if bp.Forecast.TotalWaitSec <= 0 {
		t.Fatal("three flows on two machines predicted no queueing")
	}

	sched, err := ExecuteBatchPlan(lib, specs, bp, charOpts, fleet.Clone(), false)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range sched.Jobs {
		if j.Err != nil {
			t.Fatalf("job %s: %v", j.Name, j.Err)
		}
		f := bp.Forecast.Jobs[i]
		if j.Name != f.Name {
			t.Fatalf("job %d is %q, forecast %q", i, j.Name, f.Name)
		}
		if j.StartSec != f.StartSec || j.FinishSec != f.FinishSec ||
			j.WaitSec != f.WaitSec || j.Seconds != f.Seconds || j.CostUSD != f.CostUSD {
			t.Fatalf("job %s simulated start/finish/wait/busy/cost %g/%g/%g/%g/%g, forecast %g/%g/%g/%g/%g",
				j.Name, j.StartSec, j.FinishSec, j.WaitSec, j.Seconds, j.CostUSD,
				f.StartSec, f.FinishSec, f.WaitSec, f.Seconds, f.CostUSD)
		}
		if len(j.Stages) != len(f.Stages) {
			t.Fatalf("job %s placed %d stages, forecast %d", j.Name, len(j.Stages), len(f.Stages))
		}
		for s, st := range j.Stages {
			fs := f.Stages[s]
			if st.Kind != fs.Kind || st.Instance != fs.Instance || st.Type.Name != fs.Type.Name ||
				st.StartSec != fs.StartSec || st.WaitSec != fs.WaitSec ||
				st.Seconds != fs.Seconds || st.CostUSD != fs.CostUSD {
				t.Fatalf("job %s stage %s: simulated %+v, forecast %+v", j.Name, st.Kind, st, fs)
			}
		}
	}
	if sched.TotalCostUSD != bp.Forecast.TotalCostUSD ||
		sched.MakespanSec != bp.Forecast.MakespanSec ||
		sched.TotalWaitSec != bp.Forecast.TotalWaitSec {
		t.Fatalf("aggregates: simulated %g/%g/%g, forecast %g/%g/%g",
			sched.TotalCostUSD, sched.MakespanSec, sched.TotalWaitSec,
			bp.Forecast.TotalCostUSD, bp.Forecast.MakespanSec, bp.Forecast.TotalWaitSec)
	}

	// The co-optimized batch never costs more than N independently
	// optimized plans executed on the same contended fleet.
	ibp, err := IndependentBatchPlan(specs, fleet)
	if err != nil {
		t.Fatal(err)
	}
	if !ibp.Feasible {
		t.Fatal("independent baseline infeasible")
	}
	isched, err := ExecuteBatchPlan(lib, specs, ibp, charOpts, fleet.Clone(), false)
	if err != nil {
		t.Fatal(err)
	}
	if sched.TotalCostUSD > isched.TotalCostUSD+1e-9 {
		t.Fatalf("batch bill %g exceeds independent bill %g", sched.TotalCostUSD, isched.TotalCostUSD)
	}
}

// TestReplanRecoversSlack: identical flows contending for a small fleet
// under deadlines the static plans blow — executed with their choice
// tables, the jobs must be re-planned off-plan where the queue starved
// them and miss no more deadlines than the static execution.
func TestReplanRecoversSlack(t *testing.T) {
	specs := contendedBatchSpecs(t, []string{"ibex", "ibex", "ibex"}, nil)
	fleet, err := cloud.ParseFleetSpec(cloud.DefaultCatalog(), "gp.1x=1,gp.8x=1,mem.1x=1,mem.8x=1")
	if err != nil {
		t.Fatal(err)
	}
	// Derive deadlines from an uncontended forecast: each job gets 1.3x
	// its own independent serial runtime — met alone, blown in a queue.
	ibp, err := IndependentBatchPlan(specs, fleet)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		specs[i].DeadlineSec = int(1.3 * float64(ibp.Plans[i].TotalTime))
	}
	ibp, err = IndependentBatchPlan(specs, fleet)
	if err != nil {
		t.Fatal(err)
	}
	if !ibp.Feasible {
		t.Fatal("independent plans infeasible under their own deadlines")
	}

	static, err := ExecuteBatchPlan(lib, specs, ibp, charOpts, fleet.Clone(), false)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := ExecuteBatchPlan(lib, specs, ibp, charOpts, fleet.Clone(), true)
	if err != nil {
		t.Fatal(err)
	}
	if static.Failed != 0 || adaptive.Failed != 0 {
		t.Fatalf("failures: static %d adaptive %d", static.Failed, adaptive.Failed)
	}
	if adaptive.DeadlinesMissed > static.DeadlinesMissed {
		t.Fatalf("adaptive misses %d deadlines, static %d", adaptive.DeadlinesMissed, static.DeadlinesMissed)
	}
	// The identical plans serialize on the cheap machines: the static
	// run must actually miss deadlines for the comparison to bite, and
	// the adaptive run must have moved at least one stage off-plan.
	if static.DeadlinesMissed == 0 {
		t.Fatal("static execution missed no deadlines; contention scenario too loose")
	}
	upgrades := 0
	for i, j := range adaptive.Jobs {
		sp, err := ibp.Plans[i].StagePlan()
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range j.Stages {
			if st.Type.Name != sp[st.Kind].Name {
				upgrades++
			}
		}
	}
	if upgrades == 0 {
		t.Fatal("adaptive execution never left the plan despite eaten slack")
	}
	if adaptive.DeadlinesMissed >= static.DeadlinesMissed {
		t.Fatalf("adaptive recovered nothing: %d vs %d missed", adaptive.DeadlinesMissed, static.DeadlinesMissed)
	}
	// Upgrades buy time with money: the adaptive bill may exceed the
	// static one but must stay within the fleet's ledger accounting.
	if math.Abs(adaptive.TotalCostUSD-adaptive.Fleet.TotalCostUSD()) > 1e-9 {
		t.Fatalf("adaptive bill %g vs fleet ledger %g", adaptive.TotalCostUSD, adaptive.Fleet.TotalCostUSD())
	}
	// And the co-optimizer, given the same deadlines, should produce a
	// batch whose predicted misses do not exceed the static execution's.
	bp, err := OptimizeBatch(specs, fleet)
	if err != nil {
		t.Fatal(err)
	}
	if bp.Feasible && bp.Selection.MissedDeadlines > static.DeadlinesMissed {
		t.Fatalf("co-optimizer predicts %d misses, static execution %d",
			bp.Selection.MissedDeadlines, static.DeadlinesMissed)
	}
}
