package flow

import (
	"context"
	"math"
	"reflect"
	"testing"

	"edacloud/internal/cloud"
)

// replanScenario is one plan-executing job whose deadline is 3 s short
// of its planned makespan on an uncontended fleet, with two ways to buy
// the time back: a synthesis upgrade to mem.8x that saves 1 s and a
// routing upgrade to mem.8x that saves 4 s. The choice table lists each
// stage's planned type first.
type replanScenario struct {
	plan     StagePlan
	choices  StageChoices
	deadline float64
}

func newReplanScenario(t *testing.T) replanScenario {
	t.Helper()
	catalog := cloud.DefaultCatalog()
	plan, _ := conformancePlan(t)
	mem8, err := catalog.ByName("mem.8x")
	if err != nil {
		t.Fatal(err)
	}

	// Dry-run the plan uncontended to learn the probed stage runtimes
	// the scenario is calibrated against.
	probeJobs := fleetJobs(t, 1)
	probeJobs[0].Plan = plan
	probeFleet, err := cloud.ParseFleetSpec(catalog, "gp.1x=1,mem.1x=1")
	if err != nil {
		t.Fatal(err)
	}
	probe, err := (&Scheduler{Fleet: probeFleet, Policy: PlanPolicy{}}).Run(context.Background(), probeJobs)
	if err != nil {
		t.Fatal(err)
	}
	secs := map[JobKind]float64{}
	var total float64
	for _, st := range probe.Jobs[0].Stages {
		secs[st.Kind] = st.Seconds
		total += st.Seconds
	}
	if secs[JobSynthesis] <= 1 || secs[JobRouting] <= 4 {
		t.Fatalf("probed runtimes too short for the scenario: %v", secs)
	}

	choices := StageChoices{}
	for k, it := range plan {
		choices[k] = []StageOption{{Type: it, Seconds: secs[k], CostUSD: it.Cost(secs[k])}}
	}
	synUp := secs[JobSynthesis] - 1
	rtUp := secs[JobRouting] - 4
	choices[JobSynthesis] = append(choices[JobSynthesis],
		StageOption{Type: mem8, Seconds: synUp, CostUSD: mem8.Cost(synUp)})
	choices[JobRouting] = append(choices[JobRouting],
		StageOption{Type: mem8, Seconds: rtUp, CostUSD: mem8.Cost(rtUp)})
	return replanScenario{plan: plan, choices: choices, deadline: total - 3}
}

// run executes the scenario's job, carrying the given choice table,
// on a fleet that has one machine of every type the table names.
func (sc replanScenario) run(t *testing.T, choices StageChoices) JobResult {
	t.Helper()
	jobs := fleetJobs(t, 1)
	jobs[0].Plan = sc.plan
	jobs[0].Choices = choices
	jobs[0].DeadlineSec = sc.deadline
	fleet, err := cloud.ParseFleetSpec(cloud.DefaultCatalog(), "gp.1x=1,mem.1x=1,mem.8x=1")
	if err != nil {
		t.Fatal(err)
	}
	sched, err := (&Scheduler{Fleet: fleet, Policy: PlanPolicy{}}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Jobs[0].Err != nil {
		t.Fatal(sched.Jobs[0].Err)
	}
	return sched.Jobs[0]
}

// TestLookaheadBeatsSingleStageUpgrade pins what the joint re-plan is
// for: when the deadline slack is gone but the cheap speedup lives in a
// LATER stage, upgrading the stage in hand is the expensive fix —
// synthesis's 1 s alone cannot recover the 3 s, so a stage-at-a-time
// rule ends up paying for both upgrades. The joint enumeration keeps
// synthesis planned and buys only the routing upgrade.
func TestLookaheadBeatsSingleStageUpgrade(t *testing.T) {
	sc := newReplanScenario(t)
	job := sc.run(t, sc.choices)

	// The joint answer: every stage's planned option, routing's swapped
	// for its upgrade. The both-upgrades bill swaps synthesis's too.
	picks := map[JobKind]StageOption{}
	var want float64
	for _, k := range JobKinds() {
		picks[k] = sc.choices[k][0]
		if k == JobRouting {
			picks[k] = sc.choices[k][1]
		}
		want += picks[k].CostUSD
	}
	syn := sc.choices[JobSynthesis]
	bothUpgrades := want - syn[0].CostUSD + syn[1].CostUSD

	for _, st := range job.Stages {
		if st.Type.Name != picks[st.Kind].Type.Name {
			t.Fatalf("%s ran on %s, want %s", st.Kind, st.Type.Name, picks[st.Kind].Type.Name)
		}
	}
	if !job.DeadlineMet || job.FinishSec > sc.deadline {
		t.Fatalf("missed the deadline: finish %g > %g", job.FinishSec, sc.deadline)
	}
	if math.Abs(job.CostUSD-want) > 1e-12 {
		t.Fatalf("bill %g, want the planned bills with only routing's swapped = %g", job.CostUSD, want)
	}
	if job.CostUSD >= bothUpgrades {
		t.Fatalf("bill %g not below the both-upgrades bill %g", job.CostUSD, bothUpgrades)
	}
}

// TestReplanTableBeyondBoundKeepsPlan: a caller-supplied choice table
// too wide to enumerate is not re-planned at all. The bound is checked
// per placement, over the current and remaining stages, so the last
// stage's table alone is made to exceed it: the same job that the
// narrow table moves off-plan (above) then executes its plan unchanged
// and misses its deadline.
func TestReplanTableBeyondBoundKeepsPlan(t *testing.T) {
	sc := newReplanScenario(t)
	wide := StageChoices{}
	for k, opts := range sc.choices {
		wide[k] = opts
	}
	sta := sc.choices[JobSTA][0]
	up := StageOption{Type: sc.choices[JobRouting][1].Type, Seconds: sta.Seconds / 2}
	up.CostUSD = up.Type.Cost(up.Seconds)
	wide[JobSTA] = []StageOption{sta}
	for len(wide[JobSTA]) <= 1<<16 {
		wide[JobSTA] = append(wide[JobSTA], up)
	}
	job := sc.run(t, wide)
	for _, st := range job.Stages {
		if st.Type.Name != sc.plan[st.Kind].Name {
			t.Fatalf("%s ran on %s, want the planned %s", st.Kind, st.Type.Name, sc.plan[st.Kind].Name)
		}
	}
	if job.DeadlineMet {
		t.Fatalf("plan executed verbatim cannot finish by %g, yet finished at %g", sc.deadline, job.FinishSec)
	}
}

// TestOnlyPlanExecutionIsReplanned: FirstFit and SingleInstance jobs
// may carry Choices — the placement engine prices off-probe types from
// it — but they are never re-planned: an unmeetable deadline leaves
// every placement exactly where it is without one.
func TestOnlyPlanExecutionIsReplanned(t *testing.T) {
	_, choices := conformancePlan(t)
	gp1, err := cloud.DefaultCatalog().ByName("gp.1x")
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []Policy{FirstFit{}, SingleInstance{}} {
		run := func(deadline float64) *Schedule {
			jobs := fleetJobs(t, 3)
			for i := range jobs {
				jobs[i].Instance = gp1
				jobs[i].Choices = choices
				jobs[i].DeadlineSec = deadline
			}
			fleet, err := cloud.ParseFleetSpec(cloud.DefaultCatalog(), "gp.1x=1,gp.8x=1,mem.1x=1,mem.8x=1")
			if err != nil {
				t.Fatal(err)
			}
			sched, err := (&Scheduler{Fleet: fleet, Policy: policy}).Run(context.Background(), jobs)
			if err != nil {
				t.Fatal(err)
			}
			return sched
		}
		free, pressed := run(0), run(1)
		if pressed.DeadlinesMissed != len(pressed.Jobs) {
			t.Fatalf("%s: a 1 s deadline was met; the case exerts no pressure", policy.Name())
		}
		for i := range free.Jobs {
			if free.Jobs[i].Err != nil || pressed.Jobs[i].Err != nil {
				t.Fatalf("%s: job %d: %v / %v", policy.Name(), i, free.Jobs[i].Err, pressed.Jobs[i].Err)
			}
			if !reflect.DeepEqual(free.Jobs[i].Stages, pressed.Jobs[i].Stages) {
				t.Fatalf("%s: job %d placed differently under a deadline:\n%+v\n%+v",
					policy.Name(), i, free.Jobs[i].Stages, pressed.Jobs[i].Stages)
			}
		}
	}
}
