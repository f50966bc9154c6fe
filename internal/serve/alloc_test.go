package serve

import (
	"fmt"
	"reflect"
	"testing"

	"edacloud/internal/cloud"
	"edacloud/internal/mckp"
)

// TestReplayAllocBudget is the guard that a re-plan keeps its working
// storage: replaying a fixed 60-job trace, New included, stays under a
// per-decision allocation budget. The budget is the 50.4 allocations
// measured, plus 25 %. A fleet snapshot, forecast, estimator and quota
// gate built per re-plan made 199; per-kind maps in the forecast and DP
// tables built per solve made 352.
func TestReplayAllocBudget(t *testing.T) {
	const budget = 63
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

// rebuilt returns a new engine holding e's state and none of its kept
// re-plan storage.
func rebuilt(t *testing.T, e *Engine) *Engine {
	t.Helper()
	f, err := New(e.cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.fleet, f.settled, f.now, f.jobs, f.prices, f.seen = e.fleet, e.settled, e.now, e.jobs, e.prices, e.seen
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
