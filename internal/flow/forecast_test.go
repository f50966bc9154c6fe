package flow

import (
	"math"
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

// TestForecastGatedDefersStages pins the Gate seam: a gate deferral
// re-queues the stage (nothing booked) until the deferred ready time,
// and a nil gate reproduces Forecast exactly.
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
	sched, err := ForecastGated(fleet, jobs, gate)
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
		if _, err := ForecastGated(fleet.Clone(), jobs, nil); err == nil {
			t.Errorf("kind %d accepted", int(k))
		}
	}
}
