package serve

import (
	"math"
	"strings"
	"testing"

	"edacloud/internal/cache"
	"edacloud/internal/mckp"
)

func cacheTestConfig(t *testing.T) Config {
	t.Helper()
	fleet := testFleet(t)
	tpls := testTemplates(t, fleet)
	// "small" and "big" share a synthesis prefix: same chain key for
	// stage 0, diverging after. Key values are arbitrary non-zero
	// constants — the engine only compares them for identity.
	tpls[0].Chain = []cache.Key{101, 201}
	tpls[1].Chain = []cache.Key{101, 301, 302}
	return Config{
		Fleet:     fleet,
		Tenants:   []Tenant{{Name: "acme", Weight: 2}, {Name: "zeta", Weight: 1}},
		Templates: tpls,
	}
}

// TestServeSharedPrefixDedup: two tenants submitting templates that
// share a synthesis chain prefix — the second job's synthesis is
// predicted cached, books no machine, bills nothing, and the report
// counts the hit.
func TestServeSharedPrefixDedup(t *testing.T) {
	eng, err := New(cacheTestConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	first, err := eng.Submit(SubmitRequest{Tenant: "acme", Template: "small", Name: "a", ArrivalSec: 0})
	if err != nil {
		t.Fatal(err)
	}
	if first.Status != StatusAdmitted {
		t.Fatalf("first job %s: %s", first.Status, first.Reason)
	}
	for _, st := range first.Stages {
		if st.Cached {
			t.Fatalf("first job predicted a hit with an empty fleet cache: %+v", st)
		}
	}
	second, err := eng.Submit(SubmitRequest{Tenant: "zeta", Template: "big", Name: "b", ArrivalSec: 1})
	if err != nil {
		t.Fatal(err)
	}
	if second.Status != StatusAdmitted {
		t.Fatalf("second job %s: %s", second.Status, second.Reason)
	}
	if !second.Stages[0].Cached {
		t.Fatalf("second job's shared synthesis not predicted cached: %+v", second.Stages[0])
	}
	if second.Stages[0].CostUSD != 0 {
		t.Fatalf("cached stage billed $%g", second.Stages[0].CostUSD)
	}
	if d := second.Stages[0].EndSec - second.Stages[0].StartSec; d != cache.ProbeSeconds {
		t.Fatalf("cached stage runs %gs, want the probe constant %g", d, cache.ProbeSeconds)
	}
	for _, st := range second.Stages[1:] {
		if st.Cached {
			t.Fatalf("diverging stage predicted cached: %+v", st)
		}
	}
	eng.Drain()
	rep := eng.Report()
	if rep.CacheHits != 1 {
		t.Fatalf("report counts %d cache hits, want 1", rep.CacheHits)
	}
	if !strings.Contains(rep.String(), "cache hits 1") {
		t.Fatalf("report omits the cache line:\n%s", rep)
	}
	if rep.MissedPromises != 0 || rep.MissedDeadlines != 0 {
		t.Fatalf("promises broken: %+v", rep)
	}
}

// TestServeCacheAdmitsTighterDeadline: a deadline attainable only with
// the shared prefix cached must be rejected cold and admitted warm —
// the serving-layer expression of cache-aware planning.
func TestServeCacheAdmitsTighterDeadline(t *testing.T) {
	cfg := cacheTestConfig(t)
	minCold := mckp.MinTotalTime(cfg.Templates[1].Classes)

	// Cold: nobody computed the prefix; the deadline is unattainable.
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tight := float64(minCold) - 10
	st, err := eng.Submit(SubmitRequest{Tenant: "acme", Template: "big", Name: "cold", ArrivalSec: 0, DeadlineSec: tight})
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != StatusRejected {
		t.Fatalf("cold submission met an unattainable deadline: %+v", st)
	}

	// Warm: an earlier job owns the synthesis prefix; the same deadline
	// now clears because synthesis shrinks to the probe constant.
	eng2, err := New(cacheTestConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if st, err = eng2.Submit(SubmitRequest{Tenant: "zeta", Template: "small", Name: "warm-up", ArrivalSec: 0}); err != nil {
		t.Fatal(err)
	}
	if st.Status != StatusAdmitted {
		t.Fatalf("warm-up rejected: %s", st.Reason)
	}
	st, err = eng2.Submit(SubmitRequest{Tenant: "acme", Template: "big", Name: "warm", ArrivalSec: 1, DeadlineSec: 1 + tight})
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != StatusAdmitted {
		t.Fatalf("warm submission rejected: %s", st.Reason)
	}
	eng2.Drain()
	rep := eng2.Report()
	if rep.MissedPromises != 0 || rep.MissedDeadlines != 0 {
		t.Fatalf("warm admission broke a promise: %+v", rep)
	}
}

// TestServeChainlessTemplatesUnchanged: with no Chain on any template
// the engine must behave bit-identically to the pre-cache engine —
// the report carries no hits and renders without the cache line.
func TestServeChainlessTemplatesUnchanged(t *testing.T) {
	cfg := cacheTestConfig(t)
	for i := range cfg.Templates {
		cfg.Templates[i].Chain = nil
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, tplName := range []string{"small", "big", "small"} {
		st, err := eng.Submit(SubmitRequest{
			Tenant: "acme", Template: tplName, Name: jobKey(i), ArrivalSec: float64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.Status != StatusAdmitted {
			t.Fatalf("job %d rejected: %s", i, st.Reason)
		}
		for _, ps := range st.Stages {
			if ps.Cached {
				t.Fatalf("chain-less template predicted a hit: %+v", ps)
			}
		}
	}
	eng.Drain()
	rep := eng.Report()
	if rep.CacheHits != 0 {
		t.Fatalf("chain-less trace reports %d hits", rep.CacheHits)
	}
	if strings.Contains(rep.String(), "cache hits") {
		t.Fatalf("chain-less report renders the cache line:\n%s", rep)
	}
}

// TestServeTemplateChainValidation: a chain misaligned with the stage
// list must be rejected at config time.
func TestServeTemplateChainValidation(t *testing.T) {
	cfg := cacheTestConfig(t)
	cfg.Templates[0].Chain = []cache.Key{1}
	if _, err := New(cfg); err == nil {
		t.Fatal("misaligned template chain accepted")
	}
}

// TestServeHitOnHazardStageIsProbePriced: with hazards configured, a
// repeat submission's hit stages are priced at the probe constant, not
// at a risk price — its deadline of one probe per stage is attainable —
// while miss stages run their risk-priced runtimes.
func TestServeHitOnHazardStageIsProbePriced(t *testing.T) {
	cfg := cacheTestConfig(t)
	cfg.Hazards = mckp.Hazards{"gp.2x": 60, "mem.2x": 60}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	priced := [][]mckp.Class{
		mckp.Adjust(cfg.Templates[0].Classes, nil, cfg.Hazards, 0),
		mckp.Adjust(cfg.Templates[1].Classes, nil, cfg.Hazards, 0),
	}
	requireRiskPriced := func(st PlannedStage, cl mckp.Class, nominal mckp.Class) {
		t.Helper()
		d := st.EndSec - st.StartSec
		for j, it := range cl.Items {
			if it.Label == st.Type && float64(it.TimeSec) == d {
				if it.TimeSec <= nominal.Items[j].TimeSec {
					t.Fatalf("stage %s: %s at %d s is not above its nominal %d s", st.Kind, it.Label, it.TimeSec, nominal.Items[j].TimeSec)
				}
				return
			}
		}
		t.Fatalf("stage %s runs %g s on %s, no risk-priced item of its class", st.Kind, d, st.Type)
	}

	first, err := eng.Submit(SubmitRequest{Tenant: "acme", Template: "big", Name: "a", ArrivalSec: 0})
	if err != nil || first.Status != StatusAdmitted {
		t.Fatalf("first job: %+v, %v", first, err)
	}
	for l, st := range first.Stages {
		requireRiskPriced(st, priced[1][l], cfg.Templates[1].Classes[l])
	}

	const arrival = 10
	repeat, err := eng.Submit(SubmitRequest{Tenant: "zeta", Template: "big", Name: "b",
		ArrivalSec: arrival, DeadlineSec: arrival + 3*cache.ProbeSeconds})
	if err != nil {
		t.Fatal(err)
	}
	if repeat.Status != StatusAdmitted {
		t.Fatalf("repeat job with a deadline of one probe per stage: %s (%s)", repeat.Status, repeat.Reason)
	}
	for _, st := range repeat.Stages {
		if !st.Cached || st.CostUSD != 0 || st.EndSec-st.StartSec != cache.ProbeSeconds {
			t.Fatalf("repeat job's hit stage not priced at the probe: %+v", st)
		}
	}

	third, err := eng.Submit(SubmitRequest{Tenant: "acme", Template: "small", Name: "c", ArrivalSec: arrival + 1})
	if err != nil || third.Status != StatusAdmitted {
		t.Fatalf("third job: %+v, %v", third, err)
	}
	if !third.Stages[0].Cached || third.Stages[0].EndSec-third.Stages[0].StartSec != cache.ProbeSeconds {
		t.Fatalf("shared synthesis not priced at the probe: %+v", third.Stages[0])
	}
	requireRiskPriced(third.Stages[1], priced[0][1], cfg.Templates[0].Classes[1])
}

// TestServeHazardsValidated: a NaN, infinite or negative hazard rate is
// refused when the engine is built.
func TestServeHazardsValidated(t *testing.T) {
	for _, rate := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -6} {
		cfg := cacheTestConfig(t)
		cfg.Hazards = mckp.Hazards{"gp.2x": rate}
		if _, err := New(cfg); err == nil {
			t.Fatalf("hazard rate %g accepted", rate)
		}
	}
}
