package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"edacloud/internal/cloud"
	"edacloud/internal/flow"
	"edacloud/internal/mckp"
)

// TestFiftySeedRiskAdjustedBeatsNaiveSpot is the tentpole's property
// pinned across 50 seeded scenarios: plan a batch twice — naively
// (nominal spot prices, no hazard knowledge) and risk-adjusted — then
// replay both under the same seeded revocation timelines. The
// risk-adjusted batch must never pay a larger realized bill and never
// miss more deadlines. Everything is deterministic (seeded stage
// runtimes, seeded revocations), so this is a regression pin, not a
// flaky statistical claim.
func TestFiftySeedRiskAdjustedBeatsNaiveSpot(t *testing.T) {
	catalog := spotCatalog(t)
	od, err := catalog.ByName("gp.4x")
	if err != nil {
		t.Fatal(err)
	}
	spot, err := catalog.ByName("gp.4x.spot")
	if err != nil {
		t.Fatal(err)
	}
	const ratePerHour = 27.0 // lambda*t in [3.4,4.5] for 450-600 s stages
	const backoffSec = 30.0
	hz := mckp.Hazards{spot.Name: ratePerHour}
	retry := flow.RetryPolicy{MaxAttempts: 5000, BackoffSec: backoffSec}

	totalNaiveRevs := 0
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var naiveJobs, riskJobs []flow.ForecastJob
		for ji := 0; ji < 3; ji++ {
			times := make([]int, 4)
			odTotal := 0
			for s := range times {
				times[s] = rng.Intn(151) + 450
				odTotal += times[s]
			}
			classes := make([]mckp.Class, len(times))
			for s, tt := range times {
				classes[s] = mckp.Class{Name: fmt.Sprintf("stage%d", s), Items: []mckp.Item{
					{Label: od.Name, TimeSec: tt, Cost: od.Cost(float64(tt))},
					{Label: spot.Name, TimeSec: tt, Cost: spot.Cost(float64(tt))},
				}}
			}
			deadline := int(1.2 * float64(odTotal))

			naiveSel, err := mckp.SolveMinCost(classes, deadline)
			if err != nil || !naiveSel.Feasible {
				t.Fatalf("seed %d: naive solve: %+v, %v", seed, naiveSel, err)
			}
			riskSel, err := mckp.SolveMinCost(mckp.Adjust(classes, nil, hz, backoffSec), deadline)
			if err != nil || !riskSel.Feasible {
				t.Fatalf("seed %d: risk solve: %+v, %v", seed, riskSel, err)
			}

			toJob := func(name string, sel mckp.Selection) flow.ForecastJob {
				fj := flow.ForecastJob{Name: name, DeadlineSec: float64(deadline), Retry: retry}
				for s, pick := range sel.Pick {
					it := od
					if classes[s].Items[pick].Label == spot.Name {
						it = spot
					}
					fj.Stages = append(fj.Stages, flow.ForecastStage{
						Kind: flow.JobKinds()[s], Type: it, Seconds: float64(times[s]),
					})
				}
				return fj
			}
			name := fmt.Sprintf("job%d", ji)
			naiveJobs = append(naiveJobs, toJob(name, naiveSel))
			riskJobs = append(riskJobs, toJob(name, riskSel))
		}

		run := func(jobs []flow.ForecastJob) *flow.Schedule {
			t.Helper()
			fleet, err := cloud.ParseFleetSpec(catalog, "gp.4x=3,gp.4x.spot=3")
			if err != nil {
				t.Fatal(err)
			}
			fleet.Revocation = cloud.NewRevocationModel(seed, map[string]float64{spot.Name: ratePerHour})
			sched, err := flow.Forecast(fleet, jobs)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return sched
		}
		naive, risk := run(naiveJobs), run(riskJobs)
		totalNaiveRevs += naive.Revocations

		if risk.TotalCostUSD > naive.TotalCostUSD+1e-9 {
			t.Errorf("seed %d: risk-adjusted bill %g exceeds naive-spot bill %g (naive revs %d)",
				seed, risk.TotalCostUSD, naive.TotalCostUSD, naive.Revocations)
		}
		if risk.DeadlinesMissed > naive.DeadlinesMissed {
			t.Errorf("seed %d: risk-adjusted missed %d deadlines, naive %d",
				seed, risk.DeadlinesMissed, naive.DeadlinesMissed)
		}

		// Zero-hazard control: the same naive plan replayed under a
		// zero-hazard model is byte-identical to a model-free replay.
		fleetPlain, err := cloud.ParseFleetSpec(catalog, "gp.4x=3,gp.4x.spot=3")
		if err != nil {
			t.Fatal(err)
		}
		plain, err := flow.Forecast(fleetPlain, naiveJobs)
		if err != nil {
			t.Fatal(err)
		}
		fleetZero, err := cloud.ParseFleetSpec(catalog, "gp.4x=3,gp.4x.spot=3")
		if err != nil {
			t.Fatal(err)
		}
		fleetZero.Revocation = cloud.NewRevocationModel(seed, nil)
		zero, err := flow.Forecast(fleetZero, naiveJobs)
		if err != nil {
			t.Fatal(err)
		}
		if zero.Revocations != 0 || zero.TotalCostUSD != plain.TotalCostUSD ||
			zero.MakespanSec != plain.MakespanSec ||
			math.Abs(zero.TotalWaitSec-plain.TotalWaitSec) > 0 {
			t.Fatalf("seed %d: zero-hazard replay diverged from model-free replay", seed)
		}
	}
	// The property must have had teeth: naive plans actually suffered.
	if totalNaiveRevs < 100 {
		t.Fatalf("only %d naive revocations across 50 seeds; hazard too weak to test anything", totalNaiveRevs)
	}
}
