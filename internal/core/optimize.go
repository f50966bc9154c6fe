package core

import (
	"fmt"
	"math"

	"edacloud/internal/cloud"
	"edacloud/internal/designs"
	"edacloud/internal/flow"
	"edacloud/internal/mckp"
	"edacloud/internal/techlib"
)

// StageChoice is one (stage, instance) runtime/cost point — one cell
// of the paper's Table I.
type StageChoice struct {
	Job      JobKind
	Instance cloud.InstanceType
	Seconds  float64
	Cost     float64
	// Cached marks a predicted artifact-cache hit: the stage is expected
	// to be served from the store at the probe constant instead of run,
	// so Seconds/Cost are the probe's, not the instance's. Plans carry
	// the flag into forecasts and executions (see CacheAdjusted).
	Cached bool
}

// DeploymentProblem is the optimizer input: for each flow stage, the
// runtime and cost of every candidate instance size from the stage's
// recommended family.
type DeploymentProblem struct {
	Design  string
	Stages  [][]StageChoice // [job][size]
	Classes []mckp.Class
}

// BuildDeploymentProblem converts a characterization into the MCKP
// instance of the paper's Sec. III.C: each job's candidates come from
// its recommended family (general-purpose lacks AVX in the catalog, so
// synthesis/STA runtimes are re-derived on non-AVX machines), costs
// follow per-second billing of the family's price.
func BuildDeploymentProblem(char *DesignCharacterization, catalog *cloud.Catalog) (*DeploymentProblem, error) {
	prob := &DeploymentProblem{Design: char.Design}
	for _, k := range JobKinds() {
		fam := RecommendedFamily(k)
		var choices []StageChoice
		cl := mckp.Class{Name: k.String()}
		for vi, v := range char.VCPUs {
			it, err := catalog.Size(fam, v)
			if err != nil {
				return nil, err
			}
			prof := char.Profiles[vi][int(k)]
			// Re-derive runtime on the family's silicon (AVX presence)
			// from the profiled event counts.
			m := machineFor(v, it.AVX, 0, char.WorkScale)
			secs := m.Seconds(prof.Report)
			cost := it.Cost(secs)
			choices = append(choices, StageChoice{Job: k, Instance: it, Seconds: secs, Cost: cost})
			cl.Items = append(cl.Items, mckp.Item{
				Label:   it.Name,
				TimeSec: int(math.Ceil(secs)),
				Cost:    cost,
			})
			// Catalogs extended with spot pricing (Catalog.WithSpot) expose
			// a discounted revocable twin per type; it shares the hardware,
			// so the stage's runtime carries over and only the bill drops.
			// Plain catalogs have no ".spot" names and are unaffected.
			if spot, err := catalog.ByName(it.Name + ".spot"); err == nil {
				spotCost := spot.Cost(secs)
				choices = append(choices, StageChoice{Job: k, Instance: spot, Seconds: secs, Cost: spotCost})
				cl.Items = append(cl.Items, mckp.Item{
					Label:   spot.Name,
					TimeSec: int(math.Ceil(secs)),
					Cost:    spotCost,
				})
			}
		}
		prob.Stages = append(prob.Stages, choices)
		prob.Classes = append(prob.Classes, cl)
	}
	return prob, nil
}

// Plan is an optimized deployment: one instance per stage.
type Plan struct {
	Feasible  bool
	Picks     []StageChoice // aligned with JobKinds()
	TotalTime int
	TotalCost float64
}

func (p *Plan) String() string {
	if !p.Feasible {
		return "NA"
	}
	s := ""
	for i, pick := range p.Picks {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s=%s", pick.Job, pick.Instance.Name)
	}
	return fmt.Sprintf("%s time=%ds cost=$%.2f", s, p.TotalTime, p.TotalCost)
}

// Pick returns the plan's choice for one stage.
func (p *Plan) Pick(k JobKind) (StageChoice, error) {
	for _, pick := range p.Picks {
		if pick.Job == k {
			return pick, nil
		}
	}
	return StageChoice{}, fmt.Errorf("core: plan has no pick for stage %s", k)
}

// StagePlan converts the plan into the executable form the flow
// scheduler's PlanPolicy consumes: one instance type per stage.
func (p *Plan) StagePlan() (flow.StagePlan, error) {
	if !p.Feasible {
		return nil, fmt.Errorf("core: infeasible plan has no stage assignment")
	}
	sp := flow.StagePlan{}
	for _, pick := range p.Picks {
		sp[pick.Job] = pick.Instance
	}
	return sp, nil
}

// Fleet returns the minimal fleet able to execute the plan: one
// instance of each distinct chosen type.
func (p *Plan) Fleet() (*cloud.Fleet, error) {
	if !p.Feasible {
		return nil, fmt.Errorf("core: infeasible plan has no fleet")
	}
	var entries []cloud.FleetEntry
	seen := map[string]bool{}
	for _, pick := range p.Picks {
		if seen[pick.Instance.Name] {
			continue
		}
		seen[pick.Instance.Name] = true
		entries = append(entries, cloud.FleetEntry{Type: pick.Instance, Count: 1})
	}
	return cloud.NewFleet(entries...), nil
}

// ExecutePlan runs the characterized design's flow with each stage
// placed on its plan-chosen instance type over the given fleet (nil
// means the plan's own minimal fleet) — the in-repo validation that
// the MCKP optimizer's per-stage runtime and cost predictions match
// what the fleet scheduler actually simulates. opts must carry the
// same Scale/Recipe the characterization ran with so the regenerated
// design and flow match the profiled one.
func ExecutePlan(lib *techlib.Library, char *DesignCharacterization, plan *Plan, opts CharacterizeOptions, fleet *cloud.Fleet) (*flow.Schedule, error) {
	opts = opts.withDefaults()
	sp, err := plan.StagePlan()
	if err != nil {
		return nil, err
	}
	if fleet == nil {
		if fleet, err = plan.Fleet(); err != nil {
			return nil, err
		}
	}
	g, err := designs.EvalDesign(char.Design, opts.Scale)
	if err != nil {
		return nil, err
	}
	sched := &flow.Scheduler{Workers: opts.Workers, Fleet: fleet, Policy: flow.PlanPolicy{}}
	return sched.Run(nil, []flow.Job{{
		Name:      char.Design,
		Design:    g,
		Lib:       lib,
		Options:   []flow.Option{flow.WithRecipe(opts.Recipe)},
		Plan:      sp,
		WorkScale: char.WorkScale,
	}})
}

func planFromSelection(prob *DeploymentProblem, sel mckp.Selection) *Plan {
	if !sel.Feasible {
		return &Plan{Feasible: false}
	}
	p := &Plan{Feasible: true, TotalTime: sel.TotalTime, TotalCost: sel.TotalCost}
	for l, j := range sel.Pick {
		p.Picks = append(p.Picks, prob.Stages[l][j])
	}
	return p
}

// Optimize picks the cost-minimal feasible deployment under the
// deadline (seconds), the paper's Table I computation.
func (prob *DeploymentProblem) Optimize(deadlineSec int) (*Plan, error) {
	sel, err := mckp.SolveMinCost(prob.Classes, deadlineSec)
	if err != nil {
		return nil, err
	}
	return planFromSelection(prob, sel), nil
}

// OptimizeGreedy runs the heuristic baseline (ablation).
func (prob *DeploymentProblem) OptimizeGreedy(deadlineSec int) (*Plan, error) {
	sel, err := mckp.SolveGreedy(prob.Classes, deadlineSec)
	if err != nil {
		return nil, err
	}
	return planFromSelection(prob, sel), nil
}

// OverProvision runs every stage at the largest configuration (the
// paper's Fig. 6 "over-provision" bar: all stages on 8 vCPUs).
func (prob *DeploymentProblem) OverProvision() *Plan {
	sel, _ := mckp.FixedProvision(prob.Classes, func(cl mckp.Class) int { return len(cl.Items) - 1 })
	return planFromSelection(prob, sel)
}

// UnderProvision runs every stage at the smallest configuration (the
// Fig. 6 "under-provision" bar: all stages on 1 vCPU).
func (prob *DeploymentProblem) UnderProvision() *Plan {
	sel, _ := mckp.FixedProvision(prob.Classes, func(mckp.Class) int { return 0 })
	return planFromSelection(prob, sel)
}

// MinTime returns the fastest achievable total runtime (feasibility
// limit).
func (prob *DeploymentProblem) MinTime() int { return mckp.MinTotalTime(prob.Classes) }

// TableIRow is one deadline row of the paper's Table I.
type TableIRow struct {
	DeadlineSec int
	Plan        *Plan
}

// TableI evaluates the optimizer at the given deadlines.
func (prob *DeploymentProblem) TableI(deadlines []int) ([]TableIRow, error) {
	var rows []TableIRow
	for _, d := range deadlines {
		plan, err := prob.Optimize(d)
		if err != nil {
			return nil, err
		}
		rows = append(rows, TableIRow{DeadlineSec: d, Plan: plan})
	}
	return rows, nil
}

// ProvisioningComparison is one group of the paper's Fig. 6.
type ProvisioningComparison struct {
	Design            string
	Over, Under, Opt  *Plan
	SavingVsOverPct   float64 // cost saved by the optimizer vs over-provisioning
	OverheadVsBestPct float64 // runtime overhead vs the fastest (over-provisioned) schedule
}

// CompareProvisioning reproduces one Fig. 6 group: the optimizer is
// given slackFactor x the over-provisioned (fastest) runtime as its
// deadline — "minimal overhead to the best runtime" in the paper —
// and its cost is compared against both fixed policies.
func CompareProvisioning(prob *DeploymentProblem, slackFactor float64) (*ProvisioningComparison, error) {
	if slackFactor < 1 {
		return nil, fmt.Errorf("core: slack factor %g below 1 makes every plan infeasible", slackFactor)
	}
	over := prob.OverProvision()
	under := prob.UnderProvision()
	deadline := int(float64(over.TotalTime) * slackFactor)
	opt, err := prob.Optimize(deadline)
	if err != nil {
		return nil, err
	}
	cmp := &ProvisioningComparison{Design: prob.Design, Over: over, Under: under, Opt: opt}
	if opt.Feasible && over.TotalCost > 0 {
		cmp.SavingVsOverPct = 100 * (over.TotalCost - opt.TotalCost) / over.TotalCost
	}
	if opt.Feasible && over.TotalTime > 0 {
		cmp.OverheadVsBestPct = 100 * float64(opt.TotalTime-over.TotalTime) / float64(over.TotalTime)
	}
	return cmp, nil
}
