package serve

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"edacloud/internal/cloud"
	"edacloud/internal/mckp"
)

// TestReplayAllocBudget is the guard that a re-plan keeps its working
// storage: replaying a fixed 60-job trace, New included, stays under a
// per-decision allocation budget. The budget is the 23.4 allocations
// measured, plus 25 %. Copying every re-planned job's stages at each
// adoption made 24.1; candidates and estimates allocated per solve
// made 50.4; a fleet snapshot, forecast, estimator and quota gate built
// per re-plan made 199; per-kind maps in the forecast and DP tables
// built per solve made 352.
func TestReplayAllocBudget(t *testing.T) {
	const budget = 29
	trace, err := TraceGen(TraceConfig{
		Seed: 7, Jobs: 60, RatePerSec: 0.02, Burstiness: 0.3, SlackSec: 2500,
		Tenants: []string{"alpha", "beta"}, Templates: []string{"small", "big"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t)
	var rep *Report
	allocs := testing.AllocsPerRun(5, func() {
		c := cfg
		c.Fleet = cfg.Fleet.Clone()
		if _, rep, err = Replay(c, trace); err != nil {
			t.Fatal(err)
		}
	})
	perDecision := allocs / float64(len(trace))
	t.Logf("%.1f allocations per decision (%d admitted, %d re-plans)", perDecision, rep.Admitted, rep.Replans)
	if perDecision > budget {
		t.Errorf("%.1f allocations per decision, budget %d", perDecision, budget)
	}
}

// rebuilt returns a new engine holding e's state — the jobs and the
// lists of the admitted and the streaming ones among them included —
// and none of its kept re-plan storage.
func rebuilt(t *testing.T, e *Engine) *Engine {
	t.Helper()
	f, err := New(e.cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.fleet, f.settled, f.now, f.jobs, f.prices, f.seen = e.fleet, e.settled, e.now, e.jobs, e.prices, e.seen
	f.admitted, f.streaming = e.admitted, e.streaming
	f.Replans, f.Adopted, f.Released = e.Replans, e.Adopted, e.Released
	return f
}

// TestKeptStorageMatchesRebuiltEngine: an engine that keeps its re-plan
// storage — trial fleet, DP tables, estimator, forecast, quota gate and
// candidate plan — across an 80-job trace with cancels gives exactly
// the report, job statuses, events, errors and full fleet timeline of
// one rebuilt with fresh storage before every decision: rolling, with
// cache chains and hazards, and independent.
func TestKeptStorageMatchesRebuiltEngine(t *testing.T) {
	modes := []struct {
		name    string
		tenants []string
		cfg     func(*testing.T) Config
	}{
		{"rolling", []string{"alpha", "beta"}, testConfig},
		{"cache+hazards", []string{"acme", "zeta"}, func(t *testing.T) Config {
			cfg := cacheTestConfig(t)
			cfg.Hazards = mckp.Hazards{"gp.2x": 2}
			return cfg
		}},
		{"independent", []string{"alpha", "beta"}, func(t *testing.T) Config {
			cfg := testConfig(t)
			cfg.Independent = true
			return cfg
		}},
	}
	for _, mode := range modes {
		trace, err := TraceGen(TraceConfig{
			Seed: 3, Jobs: 80, RatePerSec: 0.02, Burstiness: 0.4, SlackSec: 2200,
			Tenants: mode.tenants, Templates: []string{"small", "big"},
		})
		if err != nil {
			t.Fatal(err)
		}
		run := func(rebuild bool) (*Report, *cloud.Fleet, []string) {
			var log []string
			cfg := mode.cfg(t)
			cfg.OnEvent = func(ev Event) { log = append(log, fmt.Sprintf("%+v", ev)) }
			eng, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			step := func() {
				if rebuild {
					eng = rebuilt(t, eng)
				}
			}
			for i, tj := range trace {
				step()
				st, err := eng.Submit(SubmitRequest{Tenant: tj.Tenant, Template: tj.Template, Name: tj.Name,
					ArrivalSec: tj.ArrivalSec, DeadlineSec: tj.DeadlineSec})
				if err != nil {
					t.Fatal(err)
				}
				log = append(log, fmt.Sprintf("%+v", st))
				if i%5 == 4 {
					step()
					log = append(log, fmt.Sprint(eng.Cancel(i-3, tj.ArrivalSec+1)))
				}
				if i%7 == 6 {
					step()
					log = append(log, fmt.Sprint(eng.Cancel(i, eng.Now())))
				}
			}
			step()
			eng.Drain()
			return eng.Report(), eng.Fleet(), log
		}
		want, wantFleet, wantLog := run(true)
		got, gotFleet, gotLog := run(false)
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotLog, wantLog) {
			t.Fatalf("%s: kept storage reports\n%s\nrebuilt engines report\n%s", mode.name, got, want)
		}
		if !reflect.DeepEqual(gotFleet, wantFleet) {
			t.Fatalf("%s: kept storage leaves another fleet timeline than rebuilt engines", mode.name)
		}
		if want.Admitted == 0 || want.Canceled == 0 {
			t.Fatalf("%s: degenerate trace: %s", mode.name, want)
		}
	}
}

// TestLiveListsMatchJobs: after every Submit, Cancel and Drain of a
// 2 000-job trace, the engine's list of admitted jobs is exactly the
// admitted jobs of its history, and its list of streaming jobs exactly
// the jobs with events still to stream (none without an OnEvent), both
// in ID order: rolling, independent, and rolling with no OnEvent.
func TestLiveListsMatchJobs(t *testing.T) {
	trace, err := TraceGen(TraceConfig{
		Seed: 5, Jobs: 2000, RatePerSec: 0.02, Burstiness: 0.4, SlackSec: 2200,
		Tenants: []string{"alpha", "beta"}, Templates: []string{"small", "big"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		name                string
		independent, silent bool
	}{{"rolling", false, false}, {"independent", true, false}, {"rolling, no OnEvent", false, true}} {
		cfg := testConfig(t)
		cfg.Independent = mode.independent
		events := 0
		if !mode.silent {
			cfg.OnEvent = func(Event) { events++ }
		}
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		check := func(op string) {
			t.Helper()
			var admitted, streaming []*record
			for _, r := range eng.jobs {
				if r.status.Status == StatusAdmitted {
					admitted = append(admitted, r)
				}
				if !mode.silent && r.status.Status != StatusRejected && !streamed(r) {
					streaming = append(streaming, r)
				}
			}
			if !slices.Equal(eng.admitted, admitted) || !slices.Equal(eng.streaming, streaming) {
				t.Fatalf("%s: after %s the engine lists %d admitted and %d streaming jobs, its history %d and %d",
					mode.name, op, len(eng.admitted), len(eng.streaming), len(admitted), len(streaming))
			}
		}
		canceled := 0
		for i, tj := range trace {
			if _, err := eng.Submit(SubmitRequest{Tenant: tj.Tenant, Template: tj.Template, Name: tj.Name,
				ArrivalSec: tj.ArrivalSec, DeadlineSec: tj.DeadlineSec}); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("submit %d", i))
			if i%5 == 4 {
				if eng.Cancel(i-3, eng.Now()) == nil {
					canceled++
				}
				check(fmt.Sprintf("cancel %d", i-3))
			}
		}
		eng.Drain()
		check("drain")
		if len(eng.admitted) != 0 || canceled == 0 || (events == 0) != mode.silent {
			t.Fatalf("%s: %d admitted after the drain, %d canceled, %d events", mode.name, len(eng.admitted), canceled, events)
		}
	}
}

// TestStatusOutlivesReplan: adopting a re-plan rewrites a job's stages
// in place, so every status handed out — by Submit, Status and Jobs —
// must carry stages of its own. Each status taken along a 60-job trace
// must still report the stages it had when taken after the drain,
// while re-plans have moved some job's stages since.
func TestStatusOutlivesReplan(t *testing.T) {
	trace, err := TraceGen(TraceConfig{
		Seed: 7, Jobs: 60, RatePerSec: 0.02, Burstiness: 0.3, SlackSec: 2500,
		Tenants: []string{"alpha", "beta"}, Templates: []string{"small", "big"},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	type taken struct {
		st     JobStatus
		stages []PlannedStage
	}
	var held []taken
	hold := func(st JobStatus) { held = append(held, taken{st, slices.Clone(st.Stages)}) }
	for i, tj := range trace {
		st, err := eng.Submit(SubmitRequest{Tenant: tj.Tenant, Template: tj.Template, Name: tj.Name,
			ArrivalSec: tj.ArrivalSec, DeadlineSec: tj.DeadlineSec})
		if err != nil {
			t.Fatal(err)
		}
		hold(st)
		if i > 0 {
			r, err := eng.job(i - 1)
			if err != nil {
				t.Fatal(err)
			}
			hold(r.snapshot())
		}
		if i%10 == 9 {
			for _, st := range eng.Jobs() {
				hold(st)
			}
		}
	}
	eng.Drain()
	moved := 0
	for _, h := range held {
		if !slices.Equal(h.st.Stages, h.stages) {
			t.Fatalf("job %d: a status taken earlier now reports stages %+v, it reported %+v", h.st.ID, h.st.Stages, h.stages)
		}
		if now, _ := eng.job(h.st.ID); !slices.Equal(now.status.Stages, h.stages) {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no re-plan moved a job's stages; the test no longer covers adoption")
	}
	t.Logf("%d of %d statuses taken report stages a re-plan has since moved", moved, len(held))
}
