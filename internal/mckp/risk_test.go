package mckp

import (
	"math"
	"reflect"
	"testing"
)

func TestExpectedAttemptsAndBusy(t *testing.T) {
	// Rate 0 and zero-length stages are exactly the nominal run.
	if a := ExpectedAttempts(600, 0); a != 1 {
		t.Fatalf("attempts at rate 0 = %g", a)
	}
	if b := ExpectedBusySec(600, 0); b != 600 {
		t.Fatalf("busy at rate 0 = %g", b)
	}
	if a := ExpectedAttempts(0, 10); a != 1 {
		t.Fatalf("attempts for 0 s stage = %g", a)
	}

	// lambda*t = 1: e attempts, (e-1)/lambda busy seconds.
	lambda := 6.0 / 3600 // 6/hour
	tSec := 1 / lambda   // 600 s
	if a := ExpectedAttempts(tSec, 6); math.Abs(a-math.E) > 1e-12 {
		t.Fatalf("attempts at lambda*t=1 = %g, want e", a)
	}
	wantBusy := (math.E - 1) / lambda
	if b := ExpectedBusySec(tSec, 6); math.Abs(b-wantBusy) > 1e-9 {
		t.Fatalf("busy at lambda*t=1 = %g, want %g", b, wantBusy)
	}

	// Busy time tends to the nominal runtime as the rate tends to 0.
	if b := ExpectedBusySec(600, 1e-9); math.Abs(b-600) > 1e-3 {
		t.Fatalf("busy at vanishing rate = %g", b)
	}

	// The expectation caps rather than blowing up for hopeless items.
	if a := ExpectedAttempts(3600*10, 100); a != maxExpectedAttempts {
		t.Fatalf("uncapped attempts %g", a)
	}
	// Monotone in both arguments below the cap.
	if ExpectedAttempts(700, 6) <= ExpectedAttempts(600, 6) {
		t.Fatal("attempts not monotone in runtime")
	}
	if ExpectedBusySec(600, 12) <= ExpectedBusySec(600, 6) {
		t.Fatal("busy not monotone in rate")
	}
}

func TestRiskAdjustIdentityAndInflation(t *testing.T) {
	classes := []Class{
		{Name: "synth", Items: []Item{
			{Label: "gp.4x", TimeSec: 600, Cost: 0.10},
			{Label: "gp.4x.spot", TimeSec: 600, Cost: 0.03},
		}},
		{Name: "route", Items: []Item{
			{Label: "gp.4x", TimeSec: 1200, Cost: 0.20},
			{Label: "gp.4x.spot", TimeSec: 1200, Cost: 0.06},
		}},
	}

	// Empty or zero hazards: bit-identical output, input untouched.
	for _, hz := range []Hazards{nil, {}, {"gp.4x.spot": 0}} {
		if got := Adjust(classes, nil, hz, 30); !reflect.DeepEqual(got, classes) {
			t.Fatalf("zero-hazard adjustment changed the table: %+v", got)
		}
	}

	hz := Hazards{"gp.4x.spot": 6}
	adj := Adjust(classes, nil, hz, 30)
	if !reflect.DeepEqual(classes[0].Items[0], adj[0].Items[0]) {
		t.Fatal("on-demand item adjusted")
	}
	for l := range classes {
		spot, adjSpot := classes[l].Items[1], adj[l].Items[1]
		if adjSpot.TimeSec <= spot.TimeSec {
			t.Fatalf("stage %d: adjusted time %d not above nominal %d", l, adjSpot.TimeSec, spot.TimeSec)
		}
		if adjSpot.Cost <= spot.Cost {
			t.Fatalf("stage %d: adjusted cost %g not above nominal %g", l, adjSpot.Cost, spot.Cost)
		}
		// The adjusted wall clock covers busy time plus backoffs exactly.
		tt := float64(spot.TimeSec)
		attempts := ExpectedAttempts(tt, 6)
		busy := ExpectedBusySec(tt, 6)
		wantTime := int(math.Ceil(busy + (attempts-1)*30))
		if adjSpot.TimeSec != wantTime {
			t.Fatalf("stage %d: adjusted time %d, want %d", l, adjSpot.TimeSec, wantTime)
		}
		wantCost := spot.Cost / tt * busy
		if math.Abs(adjSpot.Cost-wantCost) > 1e-12 {
			t.Fatalf("stage %d: adjusted cost %g, want %g", l, adjSpot.Cost, wantCost)
		}
	}
	// The input was not mutated.
	if classes[0].Items[1].TimeSec != 600 || classes[1].Items[1].Cost != 0.06 {
		t.Fatal("Adjust mutated its input")
	}
}

// TestRiskPriceNeverFallsAsTheHazardRises: an adjusted spot item is
// never faster or cheaper than its uninterrupted run, and neither its
// runtime nor its cost falls as the rate rises — through the attempt
// cap too, where the expectation is priced at lambda*t = ln(cap).
func TestRiskPriceNeverFallsAsTheHazardRises(t *testing.T) {
	rates := []float64{0, 0.5, 6, 60, 180, 240, 600, 1200, 3600, 36000, math.Inf(1)}
	for _, tt := range []struct {
		timeSec int
		backoff float64
	}{{1000, 0}, {2000, 0}, {600, 30}, {20000, 0}, {1, 0}} {
		nominal := Item{Label: "spot", TimeSec: tt.timeSec, Cost: 1}
		prev := nominal
		for _, rate := range rates {
			adj := Adjust([]Class{{Name: "s", Items: []Item{nominal}}}, nil, Hazards{"spot": rate}, tt.backoff)[0].Items[0]
			if adj.TimeSec < nominal.TimeSec || adj.Cost < nominal.Cost {
				t.Fatalf("%d s at %g/h: priced %d s at %gx cost, below the nominal run",
					tt.timeSec, rate, adj.TimeSec, adj.Cost/nominal.Cost)
			}
			if adj.TimeSec < prev.TimeSec || adj.Cost < prev.Cost {
				t.Fatalf("%d s at %g/h: priced %d s at $%g, below %d s at $%g for a lower rate",
					tt.timeSec, rate, adj.TimeSec, adj.Cost, prev.TimeSec, prev.Cost)
			}
			prev = adj
		}
	}
	// The capped price meets the uncapped one at lambda*t = ln(cap).
	tSec := 1000.0
	rate := math.Log(maxExpectedAttempts) / tSec * 3600
	below, at := ExpectedBusySec(tSec, rate*(1-1e-9)), ExpectedBusySec(tSec, rate*(1+1e-9))
	if math.Abs(below-at) > 1e-3 {
		t.Fatalf("busy time jumps at the cap: %g below, %g above", below, at)
	}
}

// TestHazardsValidate: a NaN, infinite or negative rate is refused;
// zero, positive and absent rates are accepted.
func TestHazardsValidate(t *testing.T) {
	for _, hz := range []Hazards{nil, {}, {"od": 0, "spot": 6}, {"spot": 3600}} {
		if err := hz.Validate(); err != nil {
			t.Fatalf("%v refused: %v", hz, err)
		}
	}
	for _, rate := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -1e-300} {
		if err := (Hazards{"ok": 6, "spot": rate}).Validate(); err == nil {
			t.Fatalf("rate %g accepted", rate)
		}
	}
}

// TestRiskAdjustFlipsDeadlineCriticalStage: the intended planning
// effect — under a tight deadline the risk-adjusted DP buys on-demand
// where the naive spot table would gamble, and under ample slack it
// keeps the discount.
func TestRiskAdjustFlipsDeadlineCriticalStage(t *testing.T) {
	classes := []Class{{Name: "synth", Items: []Item{
		{Label: "od", TimeSec: 600, Cost: 0.10},
		{Label: "spot", TimeSec: 600, Cost: 0.03},
	}}}
	hz := Hazards{"spot": 18} // lambda*t = 3: ~20 expected attempts
	adj := Adjust(classes, nil, hz, 30)

	// Naive table happily picks spot under a 700 s deadline...
	naive, err := SolveMinCost(classes, 700)
	if err != nil || !naive.Feasible || classes[0].Items[naive.Pick[0]].Label != "spot" {
		t.Fatalf("naive pick: %+v, %v", naive, err)
	}
	// ...the adjusted table knows spot cannot make 700 s in expectation.
	tight, err := SolveMinCost(adj, 700)
	if err != nil || !tight.Feasible {
		t.Fatalf("adjusted solve: %+v, %v", tight, err)
	}
	if adj[0].Items[tight.Pick[0]].Label != "od" {
		t.Fatal("risk-adjusted DP still gambles on spot against a tight deadline")
	}
	// With enough slack for the expected retries, spot is worth it again
	// whenever its expected bill stays below on-demand.
	if adj[0].Items[1].Cost < adj[0].Items[0].Cost {
		slack, err := SolveMinCost(adj, adj[0].Items[1].TimeSec+100)
		if err != nil || !slack.Feasible {
			t.Fatalf("slack solve: %+v, %v", slack, err)
		}
		if adj[0].Items[slack.Pick[0]].Label != "spot" {
			t.Fatal("slack-rich stage stopped riding spot")
		}
	}
}
