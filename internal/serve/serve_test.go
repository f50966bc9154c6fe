package serve

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"edacloud/internal/cloud"
	"edacloud/internal/flow"
	"edacloud/internal/mckp"
)

// testFleet builds the shared serving fleet: two general-purpose and
// two memory-optimized machines.
func testFleet(t *testing.T) *cloud.Fleet {
	t.Helper()
	catalog := cloud.DefaultCatalog()
	gp, err := catalog.ByName("gp.2x")
	if err != nil {
		t.Fatal(err)
	}
	mem, err := catalog.ByName("mem.2x")
	if err != nil {
		t.Fatal(err)
	}
	return cloud.NewFleet(
		cloud.FleetEntry{Type: gp, Count: 2},
		cloud.FleetEntry{Type: mem, Count: 2},
	)
}

// item builds a choice-table entry priced at the type's own lease
// bill, so knapsack costs match what the fleet ledger will charge.
func item(t *testing.T, fleet *cloud.Fleet, label string, secs int) mckp.Item {
	t.Helper()
	typ, ok := fleet.TypeByName(label)
	if !ok {
		t.Fatalf("no type %q in fleet", label)
	}
	return mckp.Item{Label: label, TimeSec: secs, Cost: typ.Cost(float64(secs))}
}

// testTemplates builds two job shapes over the test fleet: "small"
// (synthesis+routing) and "big" (synthesis+placement+routing), each
// stage with a cheap-slow and a dear-fast option.
func testTemplates(t *testing.T, fleet *cloud.Fleet) []Template {
	t.Helper()
	return []Template{
		{
			Name:  "small",
			Kinds: []flow.JobKind{flow.JobSynthesis, flow.JobRouting},
			Classes: []mckp.Class{
				{Name: "synthesis", Items: []mckp.Item{
					item(t, fleet, "gp.2x", 100), item(t, fleet, "mem.2x", 60),
				}},
				{Name: "routing", Items: []mckp.Item{
					item(t, fleet, "mem.2x", 80), item(t, fleet, "gp.2x", 140),
				}},
			},
		},
		{
			Name:  "big",
			Kinds: []flow.JobKind{flow.JobSynthesis, flow.JobPlacement, flow.JobRouting},
			Classes: []mckp.Class{
				{Name: "synthesis", Items: []mckp.Item{
					item(t, fleet, "gp.2x", 200), item(t, fleet, "mem.2x", 120),
				}},
				{Name: "placement", Items: []mckp.Item{
					item(t, fleet, "mem.2x", 150), item(t, fleet, "gp.2x", 260),
				}},
				{Name: "routing", Items: []mckp.Item{
					item(t, fleet, "mem.2x", 100), item(t, fleet, "gp.2x", 170),
				}},
			},
		},
	}
}

func testConfig(t *testing.T) Config {
	t.Helper()
	fleet := testFleet(t)
	return Config{
		Fleet: fleet,
		Tenants: []Tenant{
			{Name: "alpha", Weight: 3},
			{Name: "beta", Weight: 1},
		},
		Templates: testTemplates(t, fleet),
	}
}

// TestEngineAdmitsAndDrains: two generously-deadlined jobs are
// admitted with promises, run to completion, keep their promises, and
// the per-job bills reconcile with the fleet ledger.
func TestEngineAdmitsAndDrains(t *testing.T) {
	eng, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	st1, err := eng.Submit(SubmitRequest{Tenant: "alpha", Template: "small", Name: "one", ArrivalSec: 0, DeadlineSec: 2000})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := eng.Submit(SubmitRequest{Tenant: "beta", Template: "big", Name: "two", ArrivalSec: 5, DeadlineSec: 4000})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []JobStatus{st1, st2} {
		if st.Status != StatusAdmitted {
			t.Fatalf("job %s: %s (%s)", st.Name, st.Status, st.Reason)
		}
		if st.PromisedSec <= 0 || st.PromisedSec > st.DeadlineSec {
			t.Fatalf("job %s promised %g against deadline %g", st.Name, st.PromisedSec, st.DeadlineSec)
		}
		if len(st.Stages) == 0 {
			t.Fatalf("job %s admitted without a plan", st.Name)
		}
	}
	eng.Drain()
	var sum float64
	for _, st := range eng.Jobs() {
		if st.Status != StatusDone {
			t.Fatalf("job %s: %s", st.Name, st.Status)
		}
		if st.FinishSec > st.PromisedSec+1e-9 {
			t.Fatalf("job %s finished %g past its promise %g", st.Name, st.FinishSec, st.PromisedSec)
		}
		sum += st.CostUSD
	}
	if total := eng.Fleet().TotalCostUSD(); math.Abs(sum-total) > 1e-9 {
		t.Fatalf("job bills sum to %g, fleet ledger says %g", sum, total)
	}
	rep := eng.Report()
	if rep.Completed != 2 || rep.MissedDeadlines != 0 || rep.MissedPromises != 0 {
		t.Fatalf("report: %+v", rep)
	}
}

// TestAdmissionRejectsImpossibleDeadline: a deadline tighter than the
// template's fastest path is rejected without touching the fleet, and
// rejection under load leaves admitted plans intact.
func TestAdmissionRejectsImpossibleDeadline(t *testing.T) {
	eng, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.Submit(SubmitRequest{Tenant: "alpha", Template: "small", Name: "hopeless", ArrivalSec: 0, DeadlineSec: 10})
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != StatusRejected {
		t.Fatalf("impossible deadline admitted: %+v", st)
	}
	if cost := eng.Fleet().TotalCostUSD(); cost != 0 {
		t.Fatalf("rejected job left $%g on the ledger", cost)
	}

	// Fill the fleet, then ask for a deadline only an empty fleet could
	// meet: the tight job must be rejected and the incumbents' plans
	// must not move.
	for i := 0; i < 4; i++ {
		st, err := eng.Submit(SubmitRequest{Tenant: "alpha", Template: "big", Name: "filler", ArrivalSec: 1, DeadlineSec: 5000})
		if err != nil {
			t.Fatal(err)
		}
		if st.Status != StatusAdmitted {
			t.Fatalf("filler %d: %s (%s)", i, st.Status, st.Reason)
		}
	}
	before := eng.Fleet().TotalCostUSD()
	st, err = eng.Submit(SubmitRequest{Tenant: "beta", Template: "big", Name: "tight", ArrivalSec: 2, DeadlineSec: 380})
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != StatusRejected {
		t.Fatalf("overloaded fleet admitted a 380 s big job: %+v", st)
	}
	if after := eng.Fleet().TotalCostUSD(); math.Abs(after-before) > 1e-9 {
		t.Fatalf("rejection changed the booked plan: $%g -> $%g", before, after)
	}
	eng.Drain()
	for _, s := range eng.Jobs() {
		if s.Status == StatusDone && s.FinishSec > s.PromisedSec+1e-9 {
			t.Fatalf("job %s finished %g past its promise %g", s.Name, s.FinishSec, s.PromisedSec)
		}
	}
}

// TestCancelFreesCapacity: canceling an admitted job keeps only its
// committed stages on the bill and releases its future leases for the
// remaining jobs to re-plan over.
func TestCancelFreesCapacity(t *testing.T) {
	eng, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.Submit(SubmitRequest{Tenant: "alpha", Template: "big", Name: "doomed", ArrivalSec: 0})
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != StatusAdmitted {
		t.Fatalf("doomed: %s (%s)", st.Status, st.Reason)
	}
	if _, err := eng.Submit(SubmitRequest{Tenant: "beta", Template: "small", Name: "beneficiary", ArrivalSec: 1}); err != nil {
		t.Fatal(err)
	}
	// Cancel mid-first-stage: the running stage stays billed, later
	// stages vanish.
	if err := eng.Cancel(0, 10); err != nil {
		t.Fatal(err)
	}
	got, _ := eng.job(0)
	if got.status.Status != StatusCanceled {
		t.Fatalf("canceled job reports %s", got.status.Status)
	}
	if len(got.status.Stages) != 1 {
		t.Fatalf("canceled job keeps %d stages, want the 1 committed", len(got.status.Stages))
	}
	// Canceling again, or canceling a finished job, refuses.
	if err := eng.Cancel(0, 20); err == nil {
		t.Fatal("double cancel accepted")
	}
	eng.Drain()
	b, _ := eng.job(1)
	if b.status.Status != StatusDone {
		t.Fatalf("beneficiary: %s", b.status.Status)
	}
	if err := eng.Cancel(1, eng.Now()); err == nil {
		t.Fatal("canceling a done job accepted")
	}
	// No lease of the canceled job starts after the cancel instant.
	for _, inst := range eng.Fleet().Instances {
		for _, l := range inst.Leases {
			if l.Job == "j0" && l.StartSec >= 10 {
				t.Fatalf("canceled job still holds a lease at %g", l.StartSec)
			}
		}
	}
	var sum float64
	for _, s := range eng.Jobs() {
		sum += s.CostUSD
	}
	if total := eng.Fleet().TotalCostUSD(); math.Abs(sum-total) > 1e-9 {
		t.Fatalf("job bills sum to %g, fleet ledger says %g", sum, total)
	}
}

// TestEventStream: the progress stream is ordered by simulated time,
// every done job emits exactly one start and one finish per stage, and
// payloads carry the flow.Event shape.
func TestEventStream(t *testing.T) {
	cfg := testConfig(t)
	var evs []Event
	cfg.OnEvent = func(ev Event) { evs = append(evs, ev) }
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Submit(SubmitRequest{Tenant: "alpha", Template: "small", Name: "one", ArrivalSec: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Submit(SubmitRequest{Tenant: "beta", Template: "big", Name: "two", ArrivalSec: 3}); err != nil {
		t.Fatal(err)
	}
	eng.Drain()
	if len(evs) != 2*(2+3) {
		t.Fatalf("got %d events, want one start+finish per stage: %+v", len(evs), evs)
	}
	last := math.Inf(-1)
	perJob := map[int][]Event{}
	for _, ev := range evs {
		if ev.AtSec < last {
			t.Fatalf("event stream went backwards: %g after %g", ev.AtSec, last)
		}
		last = ev.AtSec
		perJob[ev.JobID] = append(perJob[ev.JobID], ev)
	}
	for id, seq := range perJob {
		r, _ := eng.job(id)
		st := r.status
		wantIdx := 0
		for i := 0; i < len(seq); i += 2 {
			start, finish := seq[i], seq[i+1]
			if start.Flow.Type != flow.StageStarted || finish.Flow.Type != flow.StageFinished {
				t.Fatalf("job %d stage %d events out of order: %+v %+v", id, wantIdx, start, finish)
			}
			if start.Flow.Index != wantIdx || finish.Flow.Index != wantIdx {
				t.Fatalf("job %d expected stage index %d, got %d/%d", id, wantIdx, start.Flow.Index, finish.Flow.Index)
			}
			if start.Flow.Kind != st.Stages[wantIdx].Kind {
				t.Fatalf("job %d stage %d kind %v, plan says %v", id, wantIdx, start.Flow.Kind, st.Stages[wantIdx].Kind)
			}
			wantIdx++
		}
	}
}

// TestReplayByteIdentical: the same trace and seed replayed twice
// yield byte-identical reports and job statuses.
func TestReplayByteIdentical(t *testing.T) {
	trace, err := TraceGen(TraceConfig{
		Seed: 7, Jobs: 40, RatePerSec: 0.02, Burstiness: 0.3, SlackSec: 2500,
		Tenants: []string{"alpha", "beta"}, Templates: []string{"small", "big"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wantStr string
	var wantJSON []byte
	for run := 0; run < 2; run++ {
		_, rep, err := Replay(testConfig(t), trace)
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(rep.Statuses)
		if err != nil {
			t.Fatal(err)
		}
		if wantStr == "" {
			wantStr, wantJSON = rep.String(), js
			if rep.Admitted == 0 || rep.Completed == 0 {
				t.Fatalf("degenerate trace: %s", rep)
			}
			continue
		}
		if rep.String() != wantStr {
			t.Fatalf("second replay's report diverged:\n%s\nvs\n%s", rep, wantStr)
		}
		if string(js) != string(wantJSON) {
			t.Fatal("second replay's job statuses diverged")
		}
	}
}

// leaseOverlapRespectsQuota sweeps one tenant's final leases and
// asserts the gate's invariant: wherever two or more of its leases
// overlap, their combined spend rate stays under the tenant's cap.
func leaseOverlapRespectsQuota(t *testing.T, eng *Engine, rep *Report) {
	t.Helper()
	caps := quotaCaps(eng.cfg.Fleet, eng.cfg.Tenants)
	type span struct{ start, end, rate float64 }
	byTenant := map[string][]span{}
	for _, inst := range eng.Fleet().Instances {
		for _, l := range inst.Leases {
			tn := eng.tenantOf(l.Job)
			if tn == "" {
				continue
			}
			byTenant[tn] = append(byTenant[tn], span{l.StartSec, l.EndSec, inst.Type.PricePerHour / 3600})
		}
	}
	for tn, spans := range byTenant {
		for _, s := range spans {
			// Sample at this span's start: sum every span covering it.
			var sum float64
			var n int
			for _, o := range spans {
				if o.start <= s.start && s.start < o.end {
					sum += o.rate
					n++
				}
			}
			if n >= 2 && sum > caps[tn]+1e-9 {
				t.Fatalf("tenant %s spends %.6f $/s across %d concurrent leases at t=%g, cap %.6f",
					tn, sum, n, s.start, caps[tn])
			}
		}
	}
}

// TestReplayPropertySeeds: fifty seeded traces; on every one, no
// admitted job misses its deadline or its promise, per-tenant
// concurrent spend respects the quota, and bills reconcile.
func TestReplayPropertySeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("fifty replays")
	}
	for seed := int64(0); seed < 50; seed++ {
		trace, err := TraceGen(TraceConfig{
			Seed: seed, Jobs: 12, RatePerSec: 0.02, Burstiness: 0.4, SlackSec: 2200,
			Tenants: []string{"alpha", "beta"}, Templates: []string{"small", "big"},
		})
		if err != nil {
			t.Fatal(err)
		}
		eng, rep, err := Replay(testConfig(t), trace)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.MissedDeadlines != 0 || rep.MissedPromises != 0 {
			t.Fatalf("seed %d broke promises:\n%s", seed, rep)
		}
		if rep.Admitted != rep.Completed+rep.Canceled {
			t.Fatalf("seed %d lost jobs:\n%s", seed, rep)
		}
		var sum float64
		for _, s := range rep.Statuses {
			sum += s.CostUSD
		}
		if total := rep.TotalCostUSD; math.Abs(sum-total) > 1e-9 {
			t.Fatalf("seed %d: job bills %g vs ledger %g", seed, sum, total)
		}
		leaseOverlapRespectsQuota(t, eng, rep)
	}
}

// TestSettledArchiveComplete: over a 400-job deadlined replay with
// cancels, the engine settles finished leases out of its live fleet,
// yet Fleet() still returns the full timeline — one lease stage per
// booked stage of every admitted, done and canceled job, each
// instance's bill the left fold of its leases to the bit, and the
// tenant quota holding over the whole history. Both the rolling and
// the independent engine are checked: only the latter drops canceled
// leases through the fallback release on every cancel.
func TestSettledArchiveComplete(t *testing.T) {
	trace, err := TraceGen(TraceConfig{
		Seed: 5, Jobs: 400, RatePerSec: 0.02, Burstiness: 0.4, SlackSec: 2200,
		Tenants: []string{"alpha", "beta"}, Templates: []string{"small", "big"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, independent := range []bool{false, true} {
		cfg := testConfig(t)
		cfg.Independent = independent
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		canceled := 0
		for i, tj := range trace {
			if _, err := eng.Submit(SubmitRequest{
				Tenant: tj.Tenant, Template: tj.Template, Name: tj.Name,
				ArrivalSec: tj.ArrivalSec, DeadlineSec: tj.DeadlineSec,
			}); err != nil {
				t.Fatal(err)
			}
			if i%20 == 19 {
				if r, _ := eng.job(i - 2); r.status.Status == StatusAdmitted && eng.Cancel(i-2, eng.Now()) == nil {
					canceled++
				}
			}
		}
		eng.Drain()
		rep := eng.Report()
		if canceled == 0 || rep.Canceled != canceled || rep.Completed == 0 {
			t.Fatalf("independent=%v: degenerate replay (%d canceled):\n%s", independent, canceled, rep)
		}

		full := eng.Fleet()
		var live, archived, leaseStages int
		for i, inst := range full.Instances {
			live += len(eng.fleet.Instances[i].Leases)
			archived += len(inst.Leases)
			var c float64
			for _, l := range inst.Leases {
				c += l.CostUSD
				leaseStages += 1 + strings.Count(l.Stage, "+")
			}
			if math.Float64bits(c) != math.Float64bits(inst.CostUSD) {
				t.Fatalf("independent=%v: instance %s leases fold to %g, ledger %g", independent, inst.ID, c, inst.CostUSD)
			}
		}
		if live >= archived {
			t.Fatalf("independent=%v: live fleet holds %d leases of %d — nothing settled", independent, live, archived)
		}
		booked := 0
		for _, s := range rep.Statuses {
			if s.Status == StatusRejected {
				continue
			}
			for _, st := range s.Stages {
				if !st.Cached {
					booked++
				}
			}
		}
		if leaseStages != booked {
			t.Fatalf("independent=%v: full fleet carries %d lease stages, jobs booked %d", independent, leaseStages, booked)
		}
		if math.Float64bits(full.TotalCostUSD()) != math.Float64bits(rep.TotalCostUSD) {
			t.Fatalf("independent=%v: full fleet bills %g, report %g", independent, full.TotalCostUSD(), rep.TotalCostUSD)
		}
		leaseOverlapRespectsQuota(t, eng, rep)
	}
}

// TestRollingBeatsIndependent: on deadline-free traces the
// rolling-horizon plan never costs more than the independent
// per-arrival baseline over the same trace and fleet.
func TestRollingBeatsIndependent(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		trace, err := TraceGen(TraceConfig{
			Seed: seed, Jobs: 15, RatePerSec: 0.05, Burstiness: 0.3,
			Tenants: []string{"alpha", "beta"}, Templates: []string{"small", "big"},
		})
		if err != nil {
			t.Fatal(err)
		}
		_, rolling, err := Replay(testConfig(t), trace)
		if err != nil {
			t.Fatal(err)
		}
		indCfg := testConfig(t)
		indCfg.Independent = true
		_, indep, err := Replay(indCfg, trace)
		if err != nil {
			t.Fatal(err)
		}
		if rolling.Completed == 0 {
			t.Fatalf("seed %d: nothing completed", seed)
		}
		if rolling.TotalCostUSD > indep.TotalCostUSD+1e-9 {
			t.Fatalf("seed %d: rolling $%.4f exceeds independent $%.4f",
				seed, rolling.TotalCostUSD, indep.TotalCostUSD)
		}
	}
}

// TestNoStarvation: a tenant whose quota is below the price of every
// machine still gets its single job through — the gate's one-lease
// floor.
func TestNoStarvation(t *testing.T) {
	fleet := testFleet(t)
	cfg := Config{
		Fleet: fleet,
		Tenants: []Tenant{
			{Name: "whale", Weight: 1000},
			{Name: "minnow", Weight: 1},
		},
		Templates: testTemplates(t, fleet),
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	caps := quotaCaps(fleet, cfg.Tenants)
	if cheapest, _ := fleet.TypeByName("gp.2x"); caps["minnow"] >= cheapest.PricePerHour/3600 {
		t.Fatalf("test premise broken: minnow cap %.6f buys a machine", caps["minnow"])
	}
	st, err := eng.Submit(SubmitRequest{Tenant: "minnow", Template: "small", Name: "little", ArrivalSec: 0})
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != StatusAdmitted {
		t.Fatalf("minnow starved at admission: %s (%s)", st.Status, st.Reason)
	}
	eng.Drain()
	got, _ := eng.job(0)
	if got.status.Status != StatusDone {
		t.Fatalf("minnow job: %s", got.status.Status)
	}
}

// TestTenantWeightsMustBeFinite: a NaN or infinite weight, or finite
// weights whose sum overflows, would make every quota cap NaN (never
// binding, so quotas silently switch off) or zero. New refuses them,
// along with zero and negative weights.
func TestTenantWeightsMustBeFinite(t *testing.T) {
	for _, w := range [][2]float64{
		{math.NaN(), 1}, {math.Inf(1), 1}, {math.Inf(-1), 1}, {0, 1}, {-1, 1}, {1e308, 1e308},
	} {
		cfg := testConfig(t)
		cfg.Tenants = []Tenant{{Name: "a", Weight: w[0]}, {Name: "b", Weight: w[1]}}
		if _, err := New(cfg); err == nil {
			t.Errorf("weights %v accepted", w)
		}
	}
}

// TestTraceGen: determinism, strict ordering, and parameter
// validation, including a slack or rate that would put a deadline or
// arrival past the engine's 2^53 s clock.
func TestTraceGen(t *testing.T) {
	cfg := TraceConfig{
		Seed: 3, Jobs: 200, RatePerSec: 0.5, Burstiness: 0.2, SlackSec: 600,
		Tenants: []string{"a", "b"}, Templates: []string{"x"},
	}
	one, err := TraceGen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	two, err := TraceGen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range one {
		if one[i] != two[i] {
			t.Fatalf("same seed diverged at job %d: %+v vs %+v", i, one[i], two[i])
		}
		if i > 0 && one[i].ArrivalSec <= one[i-1].ArrivalSec {
			t.Fatalf("arrivals not strictly increasing at %d", i)
		}
		if one[i].DeadlineSec <= one[i].ArrivalSec {
			t.Fatalf("job %d deadline %g before arrival %g", i, one[i].DeadlineSec, one[i].ArrivalSec)
		}
	}
	for _, bad := range []TraceConfig{
		{Jobs: 0, RatePerSec: 1, Tenants: []string{"a"}, Templates: []string{"x"}},
		{Jobs: 1, RatePerSec: 0, Tenants: []string{"a"}, Templates: []string{"x"}},
		{Jobs: 1, RatePerSec: 1, Burstiness: 1, Tenants: []string{"a"}, Templates: []string{"x"}},
		{Jobs: 1, RatePerSec: 1},
		{Jobs: 1, RatePerSec: 1, SlackSec: 1e300, Tenants: []string{"a"}, Templates: []string{"x"}},
		{Jobs: 1, RatePerSec: 1, SlackSec: math.Inf(1), Tenants: []string{"a"}, Templates: []string{"x"}},
		{Jobs: 2, RatePerSec: 1e-300, Tenants: []string{"a"}, Templates: []string{"x"}},
	} {
		if _, err := TraceGen(bad); err == nil {
			t.Fatalf("bad trace config accepted: %+v", bad)
		}
	}
	// A length past MaxTraceJobs (a billion once died allocating the
	// trace) and a non-finite rate or burstiness (NaN once surfaced as
	// "reaches NaN s") are refused by name, before anything is drawn.
	for _, tc := range []struct {
		cfg  TraceConfig
		want string
	}{
		{TraceConfig{Jobs: 1_000_000_000, RatePerSec: 1}, "MaxTraceJobs"},
		{TraceConfig{Jobs: MaxTraceJobs + 1, RatePerSec: 1}, "MaxTraceJobs"},
		{TraceConfig{Jobs: 1, RatePerSec: math.NaN()}, "rate NaN is not finite"},
		{TraceConfig{Jobs: 1, RatePerSec: math.Inf(1)}, "rate +Inf is not finite"},
		{TraceConfig{Jobs: 1, RatePerSec: 1, Burstiness: math.NaN()}, "burstiness NaN is not finite"},
		{TraceConfig{Jobs: 1, RatePerSec: 1, Burstiness: math.Inf(-1)}, "burstiness -Inf is not finite"},
	} {
		tc.cfg.Tenants, tc.cfg.Templates = []string{"a"}, []string{"x"}
		if _, err := TraceGen(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%+v: error %v does not name %q", tc.cfg, err, tc.want)
		}
	}
	if err := (TraceConfig{Jobs: MaxTraceJobs, RatePerSec: 1}).Check(); err != nil {
		t.Fatalf("a trace of MaxTraceJobs refused: %v", err)
	}
}

// TestTemplateRepeatedKindRefused: a template that names one stage
// kind twice is refused by New. Accepted, every job submitted on it
// would be rejected with no error, since the placement engine runs
// each kind of a job once.
func TestTemplateRepeatedKindRefused(t *testing.T) {
	cfg := testConfig(t)
	tpl := &cfg.Templates[0]
	tpl.Kinds = []flow.JobKind{flow.JobSynthesis, flow.JobSynthesis}
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "repeats stage synthesis") {
		t.Fatalf("template repeating a kind: err = %v", err)
	}
}

// TestTemplateUnknownKindRefused: a template naming a kind outside
// flow.JobKinds is refused by New, whichever side of the table it
// falls on.
func TestTemplateUnknownKindRefused(t *testing.T) {
	for _, k := range []flow.JobKind{flow.JobKind(len(flow.JobKinds())), 9, -1} {
		cfg := testConfig(t)
		cfg.Templates[0].Kinds = []flow.JobKind{flow.JobSynthesis, k}
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "not one of flow.JobKinds") {
			t.Errorf("kind %d: err = %v", int(k), err)
		}
	}
}
