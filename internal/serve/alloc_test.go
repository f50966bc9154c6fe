package serve

import "testing"

// TestReplayAllocBudget is the guard that a re-plan keeps its working
// storage: replaying a fixed 60-job trace, New included, stays under a
// per-decision allocation budget. The budget is the 213 allocations
// measured, plus 25 %. Per-kind maps in the forecast and DP tables
// built per solve made 352; DP tables kept per call rather than per
// engine make 237.
func TestReplayAllocBudget(t *testing.T) {
	const budget = 266
	trace, err := TraceGen(TraceConfig{
		Seed: 7, Jobs: 60, RatePerSec: 0.02, Burstiness: 0.3, SlackSec: 2500,
		Tenants: []string{"alpha", "beta"}, Templates: []string{"small", "big"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t)
	cfg.Workers = 1
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
