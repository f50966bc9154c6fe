package flow

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"edacloud/internal/cloud"
)

// TestForecastQueueingAndBills: the forecast replays the placement
// discipline over fixed predictions — two identical jobs on one
// machine serialize, the second one's wait is exactly the first one's
// runtime, and bills follow the instance pricing.
func TestForecastQueueingAndBills(t *testing.T) {
	catalog := cloud.DefaultCatalog()
	gp, err := catalog.ByName("gp.2x")
	if err != nil {
		t.Fatal(err)
	}
	mem, err := catalog.ByName("mem.2x")
	if err != nil {
		t.Fatal(err)
	}
	fleet := cloud.NewFleet(cloud.FleetEntry{Type: gp, Count: 1}, cloud.FleetEntry{Type: mem, Count: 1})
	job := func(name string, deadline float64) ForecastJob {
		return ForecastJob{Name: name, DeadlineSec: deadline, Stages: []ForecastStage{
			{Kind: JobSynthesis, Type: gp, Seconds: 100},
			{Kind: JobRouting, Type: mem, Seconds: 50},
		}}
	}
	sched, err := Forecast(fleet, []ForecastJob{job("a", 0), job("b", 160)})
	if err != nil {
		t.Fatal(err)
	}
	a, b := sched.Jobs[0], sched.Jobs[1]
	if a.StartSec != 0 || a.FinishSec != 150 || a.WaitSec != 0 {
		t.Fatalf("job a: %+v", a)
	}
	// b's synthesis queues behind a's (100 s), then its routing waits
	// for a's routing to clear mem (200 vs ready 200: no wait).
	if b.StartSec != 100 || b.WaitSec != 100 || b.FinishSec != 250 {
		t.Fatalf("job b: start=%g wait=%g finish=%g", b.StartSec, b.WaitSec, b.FinishSec)
	}
	if b.DeadlineMet {
		t.Fatal("job b met a 160 s deadline while finishing at 250 s")
	}
	wantBill := gp.Cost(100) + mem.Cost(50)
	for _, j := range []JobResult{a, b} {
		if math.Abs(j.CostUSD-wantBill) > 1e-12 {
			t.Fatalf("job %s billed %g, want %g", j.Name, j.CostUSD, wantBill)
		}
		if j.Run != nil {
			t.Fatalf("forecast job %s carries artifacts", j.Name)
		}
	}
	if sched.MakespanSec != 250 || sched.TotalWaitSec != 100 {
		t.Fatalf("aggregates: %+v", sched)
	}

	// Bad inputs refuse: no type, negative runtime, duplicate stage,
	// and a type the fleet lacks.
	if _, err := Forecast(fleet.Clone(), []ForecastJob{{Name: "x", Stages: []ForecastStage{{Kind: JobSTA, Seconds: 1}}}}); err == nil {
		t.Fatal("typeless forecast stage accepted")
	}
	if _, err := Forecast(fleet.Clone(), []ForecastJob{{Name: "x", Stages: []ForecastStage{{Kind: JobSTA, Type: gp, Seconds: -1}}}}); err == nil {
		t.Fatal("negative runtime accepted")
	}
	if _, err := Forecast(fleet.Clone(), []ForecastJob{{Name: "x", Stages: []ForecastStage{
		{Kind: JobSTA, Type: gp, Seconds: 1}, {Kind: JobSTA, Type: gp, Seconds: 1},
	}}}); err == nil {
		t.Fatal("duplicate stage accepted")
	}
	cpu, err := catalog.ByName("cpu.8x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Forecast(fleet.Clone(), []ForecastJob{{Name: "x", Stages: []ForecastStage{{Kind: JobSTA, Type: cpu, Seconds: 1}}}}); err == nil {
		t.Fatal("type absent from the fleet accepted")
	}
}

// TestForecastReadySec pins the rolling-horizon entry point: a job
// arriving at T starts no earlier than T, queues FIFO by ready time
// against earlier arrivals, and measures its wait from its own
// arrival.
func TestForecastReadySec(t *testing.T) {
	catalog := cloud.DefaultCatalog()
	gp, err := catalog.ByName("gp.2x")
	if err != nil {
		t.Fatal(err)
	}
	fleet := cloud.NewFleet(cloud.FleetEntry{Type: gp, Count: 1})
	job := func(name string, ready float64) ForecastJob {
		return ForecastJob{Name: name, ReadySec: ready, Stages: []ForecastStage{
			{Kind: JobSynthesis, Type: gp, Seconds: 100},
		}}
	}
	sched, err := Forecast(fleet, []ForecastJob{job("a", 0), job("b", 40), job("c", 500)})
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := sched.Jobs[0], sched.Jobs[1], sched.Jobs[2]
	if a.StartSec != 0 || a.FinishSec != 100 {
		t.Fatalf("job a: %+v", a)
	}
	// b arrives at 40, waits for a's machine until 100.
	if b.StartSec != 100 || b.WaitSec != 60 || b.FinishSec != 200 {
		t.Fatalf("job b: start=%g wait=%g finish=%g", b.StartSec, b.WaitSec, b.FinishSec)
	}
	// c arrives after the machine is idle again: starts on arrival.
	if c.StartSec != 500 || c.WaitSec != 0 || c.FinishSec != 600 {
		t.Fatalf("job c: start=%g wait=%g finish=%g", c.StartSec, c.WaitSec, c.FinishSec)
	}
	if _, err := Forecast(fleet, []ForecastJob{job("neg", -1)}); err == nil {
		t.Fatal("negative ready time accepted")
	}
}

// deferGate defers every booking of the named job until a fixed time.
type deferGate struct {
	job   string
	until float64
	asked int
}

func (g *deferGate) Admit(job *Job, k JobKind, it cloud.InstanceType, startSec, durSec float64) (float64, bool) {
	g.asked++
	if job.Name == g.job && startSec < g.until {
		return g.until, false
	}
	return 0, true
}

// TestForecastGatedDefersStages pins Forecaster.Forecast's Gate seam:
// a gate deferral re-queues the stage (nothing booked) until the
// deferred ready time.
func TestForecastGatedDefersStages(t *testing.T) {
	catalog := cloud.DefaultCatalog()
	gp, err := catalog.ByName("gp.2x")
	if err != nil {
		t.Fatal(err)
	}
	jobs := []ForecastJob{
		{Name: "a", Stages: []ForecastStage{{Kind: JobSynthesis, Type: gp, Seconds: 100}}},
		{Name: "b", Stages: []ForecastStage{{Kind: JobSynthesis, Type: gp, Seconds: 100}}},
	}
	fleet := cloud.NewFleet(cloud.FleetEntry{Type: gp, Count: 2})
	gate := &deferGate{job: "b", until: 300}
	sched, err := new(Forecaster).Forecast(fleet, jobs, gate)
	if err != nil {
		t.Fatal(err)
	}
	a, b := sched.Jobs[0], sched.Jobs[1]
	if a.StartSec != 0 || a.FinishSec != 100 {
		t.Fatalf("job a: %+v", a)
	}
	// Deferral advances the job's ready time, so wait measures only
	// queueing after the gate finally admits it — zero here.
	if b.StartSec != 300 || b.FinishSec != 400 || b.WaitSec != 0 {
		t.Fatalf("deferred job b: start=%g finish=%g wait=%g", b.StartSec, b.FinishSec, b.WaitSec)
	}
	if gate.asked < 3 {
		t.Fatalf("gate consulted %d times, want the deferral plus re-asks", gate.asked)
	}
	// The deferred stage booked nothing before its admitted interval.
	for _, inst := range sched.Fleet.Instances {
		for _, l := range inst.Leases {
			if l.Job == "b" && l.StartSec != 300 {
				t.Fatalf("job b leaked a lease at %g", l.StartSec)
			}
		}
	}
}

// TestForecastRefusesUnknownKind: a forecast stage whose kind is not
// one of JobKinds is an error, not an index past the per-kind tables.
func TestForecastRefusesUnknownKind(t *testing.T) {
	gp, err := cloud.DefaultCatalog().ByName("gp.2x")
	if err != nil {
		t.Fatal(err)
	}
	fleet := cloud.NewFleet(cloud.FleetEntry{Type: gp, Count: 1})
	for _, k := range []JobKind{JobKind(numKinds), 9, -1} {
		jobs := []ForecastJob{{Name: "x", Stages: []ForecastStage{
			{Kind: JobSynthesis, Type: gp, Seconds: 1}, {Kind: k, Type: gp, Seconds: 1},
		}}}
		if _, err := new(Forecaster).Forecast(fleet.Clone(), jobs, nil); err == nil {
			t.Errorf("kind %d accepted", int(k))
		}
	}
}

// overlapGate admits at most two overlapping bookings per job-name
// parity and defers the rest to the earliest end among them: a
// stateful gate like a tenant quota, so a forecast's deferrals depend
// on every booking before them.
type overlapGate struct {
	booked [2][][2]float64
}

func (g *overlapGate) Admit(job *Job, k JobKind, it cloud.InstanceType, startSec, durSec float64) (float64, bool) {
	group := &g.booked[len(job.Name)%2]
	end := startSec + durSec
	overlaps, until := 0, math.Inf(1)
	for _, iv := range *group {
		if iv[0] < end && iv[1] > startSec {
			overlaps++
			until = min(until, iv[1])
		}
	}
	if overlaps >= 2 {
		return until, false
	}
	*group = append(*group, [2]float64{startSec, end})
	return 0, true
}

// TestForecasterReuseMatchesFresh: one Forecaster kept over 72 seeded
// batches, whose job and stage counts grow and shrink from one batch to
// the next, gated and ungated, on a fleet with spot revocations and
// committed leases, gives exactly the schedule — every job, stage,
// lease and ledger — and the error a fresh Forecaster gives.
func TestForecasterReuseMatchesFresh(t *testing.T) {
	base := spotTestFleet(t, "gp.2x=2,gp.2x.spot=2,mem.4x=1,mem.4x.spot=1", 5, 2)
	for i := range base.Instances {
		base.Book(i, "committed", "synthesis", 0, float64(50*i))
	}
	var types []cloud.InstanceType
	for _, inst := range base.Instances {
		types = append(types, inst.Type)
	}
	var kept Forecaster
	sizes, failed, revoked := map[int]bool{}, 0, 0
	for seed := int64(0); seed < 72; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		if seed%3 == 0 {
			n *= 4
		}
		sizes[n] = true
		jobs := make([]ForecastJob, n)
		for i := range jobs {
			fj := ForecastJob{
				Name:     strings.Repeat("j", 1+i%3) + strconv.Itoa(i),
				ReadySec: float64(rng.Intn(400)),
				Retry:    RetryPolicy{MaxAttempts: 2 + rng.Intn(4), BackoffSec: float64(rng.Intn(30)), EscalateAfter: rng.Intn(3)},
			}
			if rng.Intn(3) == 0 {
				fj.DeadlineSec = fj.ReadySec + float64(500+rng.Intn(2000))
			}
			for _, k := range JobKinds() {
				if rng.Intn(4) == 0 && len(fj.Stages) > 0 {
					continue
				}
				fj.Stages = append(fj.Stages, ForecastStage{
					Kind: k, Type: types[rng.Intn(len(types))],
					Seconds: float64(100 + rng.Intn(900)), Cached: rng.Intn(6) == 0,
				})
			}
			jobs[i] = fj
		}
		gated := seed%2 == 0
		gate := func() Gate {
			if gated {
				return &overlapGate{}
			}
			return nil
		}
		want, wantErr := new(Forecaster).Forecast(base.Snapshot(), jobs, gate())
		got, gotErr := kept.Forecast(base.Snapshot(), jobs, gate())
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("seed %d: kept Forecaster error %v, fresh %v", seed, gotErr, wantErr)
		}
		if wantErr != nil {
			failed++
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (gated %v): kept Forecaster gives\n%+v\nfresh gives\n%+v", seed, gated, got, want)
		}
		revoked += want.Revocations
	}
	if len(sizes) < 6 || failed == 0 || failed > 36 || revoked == 0 {
		t.Fatalf("%d batch sizes, %d of 72 batches failed, %d revocations: the seeds no longer cover growing, shrinking, failing and revoked batches",
			len(sizes), failed, revoked)
	}
}
