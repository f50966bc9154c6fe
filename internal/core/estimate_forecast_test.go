package core

import (
	"fmt"
	"math/rand"
	"testing"

	"edacloud/internal/cloud"
	"edacloud/internal/flow"
	"edacloud/internal/mckp"
)

// TestBatchEstimateMatchesForecast pins the batch optimizer's integral
// schedule estimator against the scheduler's placement engine. Both
// place stages FIFO by ready time (ties toward the earlier job) onto the
// earliest-free machine of the picked type, so with whole-second stage
// runtimes every job's start, wait and finish in
// mckp.BatchSelection.Estimates must equal flow.Forecast's for the same
// picks. Seeded batches of 2–11 jobs with 1–4 stages, random ready times
// and deadlines, on a mixed fleet.
func TestBatchEstimateMatchesForecast(t *testing.T) {
	catalog := cloud.DefaultCatalog()
	fleet, err := cloud.ParseFleetSpec(catalog, "gp.1x=2,gp.4x=1,mem.2x=1,mem.8x=2")
	if err != nil {
		t.Fatal(err)
	}
	capacity := batchCapacity(fleet)
	labels := []string{"gp.1x", "gp.4x", "mem.2x", "mem.8x"}
	kinds := flow.JobKinds()

	totalWait := 0
	for seed := int64(0); seed < 250; seed++ {
		rng := rand.New(rand.NewSource(seed))
		jobs := make([]mckp.BatchJob, 2+rng.Intn(10))
		for i := range jobs {
			job := mckp.BatchJob{Name: fmt.Sprintf("j%d", i), ReadySec: rng.Intn(300)}
			for l := 0; l < 1+rng.Intn(len(kinds)); l++ {
				cl := mckp.Class{Name: kinds[l].String()}
				perm := rng.Perm(len(labels))
				for _, p := range perm[:1+rng.Intn(len(labels))] {
					typ, _ := fleet.TypeByName(labels[p])
					secs := 1 + rng.Intn(150)
					cl.Items = append(cl.Items, mckp.Item{Label: typ.Name, TimeSec: secs, Cost: typ.Cost(float64(secs))})
				}
				job.Classes = append(job.Classes, cl)
			}
			if rng.Intn(3) > 0 {
				// A deadline every job meets alone keeps the batch feasible;
				// contention makes some of them bind.
				job.DeadlineSec = job.ReadySec + mckp.MinTotalTime(job.Classes) + rng.Intn(400)
			}
			jobs[i] = job
		}

		sel, err := mckp.BatchOptimize(jobs, capacity)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !sel.Feasible {
			t.Fatalf("seed %d: batch infeasible", seed)
		}
		fjobs := make([]flow.ForecastJob, len(jobs))
		for i, job := range jobs {
			fj := flow.ForecastJob{Name: job.Name, DeadlineSec: float64(job.DeadlineSec), ReadySec: float64(job.ReadySec)}
			for l, j := range sel.Jobs[i].Pick {
				it := job.Classes[l].Items[j]
				typ, _ := fleet.TypeByName(it.Label)
				fj.Stages = append(fj.Stages, flow.ForecastStage{Kind: kinds[l], Type: typ, Seconds: float64(it.TimeSec)})
			}
			fjobs[i] = fj
		}
		sched, err := flow.Forecast(fleet.Clone(), fjobs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		for i, est := range sel.Estimates {
			got := sched.Jobs[i]
			if float64(est.StartSec) != got.StartSec || float64(est.WaitSec) != got.WaitSec ||
				float64(est.FinishSec) != got.FinishSec || est.DeadlineMet != got.DeadlineMet {
				t.Fatalf("seed %d (%s) job %s: estimate start/wait/finish %d/%d/%d met %v, forecast %g/%g/%g met %v",
					seed, sel.Method, jobs[i].Name, est.StartSec, est.WaitSec, est.FinishSec, est.DeadlineMet,
					got.StartSec, got.WaitSec, got.FinishSec, got.DeadlineMet)
			}
			totalWait += est.WaitSec
		}
		if float64(sel.MakespanSec) != sched.MakespanSec {
			t.Fatalf("seed %d: estimated makespan %d, forecast %g", seed, sel.MakespanSec, sched.MakespanSec)
		}
	}
	if totalWait == 0 {
		t.Fatal("no job ever queued; the fleet is too large for the property to bite")
	}
}
