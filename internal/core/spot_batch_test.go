package core

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"edacloud/internal/cache"
	"edacloud/internal/cloud"
	"edacloud/internal/flow"
	"edacloud/internal/mckp"
)

func spotCatalog(t *testing.T) *cloud.Catalog {
	t.Helper()
	c, err := cloud.DefaultCatalog().WithSpot(0.7)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// spotBatchSpecs characterizes designs against the spot-extended
// catalog, so every choice table carries the discounted revocable twin
// of each on-demand candidate.
func spotBatchSpecs(t *testing.T, names []string, deadlines []int) []BatchJobSpec {
	t.Helper()
	catalog := spotCatalog(t)
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
		specs[i] = BatchJobSpec{Name: name + "#" + string(rune('0'+i)), Char: char, Prob: prob}
		if deadlines != nil {
			specs[i].DeadlineSec = deadlines[i]
		}
	}
	return specs
}

// TestSpotProblemShape: a spot-extended catalog doubles each stage's
// candidates; the plain catalog builds the problem exactly as before.
func TestSpotProblemShape(t *testing.T) {
	char := characterized(t, "dyn_node")
	plain, err := BuildDeploymentProblem(char, cloud.DefaultCatalog())
	if err != nil {
		t.Fatal(err)
	}
	spot, err := BuildDeploymentProblem(char, spotCatalog(t))
	if err != nil {
		t.Fatal(err)
	}
	for l := range plain.Stages {
		if len(spot.Stages[l]) != 2*len(plain.Stages[l]) {
			t.Fatalf("stage %d: %d spot candidates, %d plain", l, len(spot.Stages[l]), len(plain.Stages[l]))
		}
		for j, c := range plain.Stages[l] {
			sc := spot.Stages[l][2*j]
			sp := spot.Stages[l][2*j+1]
			if !reflect.DeepEqual(sc, c) {
				t.Fatalf("stage %d item %d changed: %+v vs %+v", l, j, sc, c)
			}
			if !sp.Instance.Revocable || sp.Instance.OnDemand != c.Instance.Name {
				t.Fatalf("stage %d item %d spot twin malformed: %+v", l, j, sp.Instance)
			}
			if sp.Seconds != c.Seconds || sp.Cost >= c.Cost {
				t.Fatalf("stage %d item %d: spot %gs/$%g vs on-demand %gs/$%g",
					l, j, sp.Seconds, sp.Cost, c.Seconds, c.Cost)
			}
		}
	}
}

// TestSpotBatchForecastMatchesExecutionUnderRevocation is the
// tentpole's parity contract extended to faults: on a spot fleet with
// a seeded revocation model, the co-optimizer's forecast — replaying
// the same placement engine over the same revocation timelines — must
// match the real execution bit for bit, revocations, retries and
// truncated bills included.
func TestSpotBatchForecastMatchesExecutionUnderRevocation(t *testing.T) {
	specs := spotBatchSpecs(t, []string{"dyn_node", "aes", "ibex"}, nil)
	catalog := spotCatalog(t)
	fleet, err := cloud.ParseFleetSpec(catalog, "gp.2x.spot=1,mem.2x.spot=1")
	if err != nil {
		t.Fatal(err)
	}
	fleet.Revocation = cloud.NewRevocationModel(9, cloud.UniformSpotHazards(catalog, 60))

	opts := BatchOptions{
		Hazards: mckp.Hazards(cloud.UniformSpotHazards(catalog, 60)),
		Retry:   flow.RetryPolicy{MaxAttempts: 50, BackoffSec: 15},
	}
	bp, err := OptimizeBatch(specs, fleet, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bp.Feasible {
		t.Fatal("deadline-free spot batch infeasible")
	}
	if bp.Forecast.Revocations == 0 {
		t.Fatal("60/h hazard forecast no revocations; scenario needs retuning")
	}

	sched, err := ExecuteBatchPlan(lib, specs, bp, charOpts, fleet.Clone(), false)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Revocations != bp.Forecast.Revocations || sched.RetriedSec != bp.Forecast.RetriedSec {
		t.Fatalf("execution saw %d revocations/%g retried sec, forecast %d/%g",
			sched.Revocations, sched.RetriedSec, bp.Forecast.Revocations, bp.Forecast.RetriedSec)
	}
	for i, j := range sched.Jobs {
		if j.Err != nil {
			t.Fatalf("job %s: %v", j.Name, j.Err)
		}
		f := bp.Forecast.Jobs[i]
		if j.StartSec != f.StartSec || j.FinishSec != f.FinishSec ||
			j.WaitSec != f.WaitSec || j.Seconds != f.Seconds || j.CostUSD != f.CostUSD ||
			j.Revocations != f.Revocations || j.RetriedSec != f.RetriedSec ||
			j.RecoveredFromCheckpoint != f.RecoveredFromCheckpoint {
			t.Fatalf("job %s diverged from forecast:\nexec     %+v\nforecast %+v", j.Name, j, f)
		}
		if len(j.Stages) != len(f.Stages) {
			t.Fatalf("job %s placed %d stage attempts, forecast %d", j.Name, len(j.Stages), len(f.Stages))
		}
		for s, st := range j.Stages {
			fs := f.Stages[s]
			if st.Kind != fs.Kind || st.Instance != fs.Instance || st.StartSec != fs.StartSec ||
				st.Seconds != fs.Seconds || st.CostUSD != fs.CostUSD ||
				st.Revoked != fs.Revoked || st.RevokedAt != fs.RevokedAt || st.Attempt != fs.Attempt {
				t.Fatalf("job %s stage %s attempt %d: exec %+v, forecast %+v", j.Name, st.Kind, st.Attempt, st, fs)
			}
		}
	}
	if sched.TotalCostUSD != bp.Forecast.TotalCostUSD || sched.MakespanSec != bp.Forecast.MakespanSec {
		t.Fatalf("aggregates: exec %g/%g, forecast %g/%g",
			sched.TotalCostUSD, sched.MakespanSec, bp.Forecast.TotalCostUSD, bp.Forecast.MakespanSec)
	}
}

// TestRiskAdjustedBatchBeatsNaiveSpot: under deadlines sized to the
// on-demand serial runtimes, the naive planner gambles everything on
// the spot discount and revocations blow its deadlines; the
// risk-adjusted batch buys on-demand where it matters and meets them —
// the ISSUE's three-way golden scenario, pinned as a property.
func TestRiskAdjustedBatchBeatsNaiveSpot(t *testing.T) {
	catalog := spotCatalog(t)
	names := []string{"aes", "jpeg"}
	specs := spotBatchSpecs(t, names, nil)
	fleet, err := cloud.ParseFleetSpec(catalog, "gp.2x=1,mem.2x=1,gp.2x.spot=1,mem.2x.spot=1")
	if err != nil {
		t.Fatal(err)
	}
	// Deadlines: a hair over each job's cheapest on-demand serial plan.
	plain := contendedBatchSpecs(t, names, nil)
	for i := range specs {
		ondemand, err := plain[i].Prob.Optimize(plain[i].Prob.UnderProvision().TotalTime)
		if err != nil || !ondemand.Feasible {
			t.Fatalf("%+v, %v", ondemand, err)
		}
		specs[i].DeadlineSec = int(1.15 * float64(ondemand.TotalTime))
	}

	const seed, rate = 2, 240
	hazards := cloud.UniformSpotHazards(catalog, rate)
	retry := flow.RetryPolicy{MaxAttempts: 200, BackoffSec: 15}
	execute := func(bp *BatchPlan) *flow.Schedule {
		t.Helper()
		f := fleet.Clone()
		f.Revocation = cloud.NewRevocationModel(seed, hazards)
		sched, err := ExecuteBatchPlan(lib, specs, bp, charOpts, f, false)
		if err != nil {
			t.Fatal(err)
		}
		return sched
	}

	// The naive planner sees nominal spot prices and no hazards.
	naive, err := OptimizeBatch(specs, fleet, BatchOptions{Retry: retry})
	if err != nil {
		t.Fatal(err)
	}
	if !naive.Feasible {
		t.Fatal("naive batch infeasible")
	}
	naiveSpot := 0
	for _, plan := range naive.Plans {
		for _, pick := range plan.Picks {
			if pick.Instance.Revocable {
				naiveSpot++
			}
		}
	}
	if naiveSpot == 0 {
		t.Fatal("naive planner bought no spot capacity; discount scenario broken")
	}

	risk, err := OptimizeBatch(specs, fleet, BatchOptions{
		Hazards: mckp.Hazards(hazards), Retry: retry,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !risk.Feasible {
		t.Fatal("risk-adjusted batch infeasible")
	}

	naiveSched := execute(naive)
	riskSched := execute(risk)
	if naiveSched.Revocations == 0 {
		t.Fatal("naive all-spot execution saw no revocations; hazard needs retuning")
	}
	if naiveSched.DeadlinesMissed == 0 {
		t.Fatal("naive spot gamble met every deadline; scenario too loose to bite")
	}
	if riskSched.DeadlinesMissed >= naiveSched.DeadlinesMissed {
		t.Fatalf("risk-adjusted batch missed %d deadlines, naive %d",
			riskSched.DeadlinesMissed, naiveSched.DeadlinesMissed)
	}
	if riskSched.DeadlinesMissed != 0 {
		t.Fatalf("risk-adjusted batch still missed %d deadlines", riskSched.DeadlinesMissed)
	}
	// And the realized bill: the naive plan pays for every truncated
	// spot attempt under the ledger, the risk-adjusted plan does not.
	if riskSched.TotalCostUSD > naiveSched.TotalCostUSD+1e-9 {
		t.Fatalf("risk-adjusted bill %g exceeds naive-spot bill %g",
			riskSched.TotalCostUSD, naiveSched.TotalCostUSD)
	}
}

// TestBatchHitOnHazardStageIsProbePriced: a predicted hit on a stage
// whose every candidate carries a hazard is solved at the probe
// constant — never risk-priced, since a hit books no lease — and its
// plan pick is Cached; the job's miss stages are risk-priced.
func TestBatchHitOnHazardStageIsProbePriced(t *testing.T) {
	catalog := spotCatalog(t)
	specs := spotBatchSpecs(t, []string{"aes", "aes"}, nil)
	fleet, err := cloud.ParseFleetSpec(catalog, "gp.2x=1,mem.2x=1,gp.2x.spot=1,mem.2x.spot=1")
	if err != nil {
		t.Fatal(err)
	}
	hits := []bool{true, true, false, false}
	specs[1].CacheHits = hits
	// Every candidate carries a hazard: spot at 240/h, on-demand at 6/h.
	hz := mckp.Hazards{}
	for label, rate := range cloud.UniformSpotHazards(catalog, 240) {
		hz[label] = rate
		hz[strings.TrimSuffix(label, ".spot")] = 6
	}
	opts := BatchOptions{Hazards: hz, Retry: flow.RetryPolicy{MaxAttempts: 50, BackoffSec: 15}}
	bp, err := OptimizeBatch(specs, fleet, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bp.Feasible {
		t.Fatal("deadline-free batch infeasible")
	}
	restricted, err := specs[1].Prob.Restrict(fleet)
	if err != nil {
		t.Fatal(err)
	}
	solved := mckp.Adjust(restricted.Classes, hits, hz, opts.Retry.BackoffSec)
	sel := bp.Selection.Jobs[1]
	var total int
	for l, j := range sel.Pick {
		total += solved[l].Items[j].TimeSec
		if !hits[l] {
			if bp.Plans[1].Picks[l].Cached {
				t.Fatalf("miss stage %d planned cached", l)
			}
			continue
		}
		for j, it := range solved[l].Items {
			if it != (mckp.Item{Label: restricted.Classes[l].Items[j].Label, TimeSec: cache.ProbeTimeSec, Cost: 0}) {
				t.Fatalf("hit stage %d item %d solved as %+v, want the probe constant", l, j, it)
			}
			if hz[it.Label] <= 0 {
				t.Fatalf("hit stage %d item %d carries no hazard; scenario broken", l, j)
			}
		}
		if pick := bp.Plans[1].Picks[l]; !pick.Cached || pick.Seconds != cache.ProbeSeconds || pick.Cost != 0 {
			t.Fatalf("hit stage %d picked %+v, want a cached probe", l, pick)
		}
	}
	if sel.TotalTime != total {
		t.Fatalf("job solved to %d s, its risk- and cache-priced picks sum to %d s", sel.TotalTime, total)
	}
	for l := range hits {
		if !hits[l] && solved[l].Items[sel.Pick[l]].TimeSec <= restricted.Classes[l].Items[sel.Pick[l]].TimeSec {
			t.Fatalf("miss stage %d not risk-priced: %+v", l, solved[l].Items[sel.Pick[l]])
		}
	}
}

// TestBatchHazardsValidated: a NaN, infinite or negative hazard rate is
// refused before anything is solved.
func TestBatchHazardsValidated(t *testing.T) {
	specs := spotBatchSpecs(t, []string{"dyn_node"}, nil)
	fleet, err := cloud.ParseFleetSpec(spotCatalog(t), "gp.2x.spot=1,mem.2x.spot=1")
	if err != nil {
		t.Fatal(err)
	}
	for _, rate := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		if _, err := OptimizeBatch(specs, fleet, BatchOptions{Hazards: mckp.Hazards{"gp.2x.spot": rate}}); err == nil {
			t.Fatalf("hazard rate %g accepted", rate)
		}
	}
}
