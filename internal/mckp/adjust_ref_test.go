package mckp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"edacloud/internal/cache"
)

// refRiskAdjust is the risk rewrite as it stood before the table
// transform merged it with the cache rewrite: a fresh copy of every
// class, each hazard-bearing item at its expectation.
func refRiskAdjust(classes []Class, hz Hazards, backoffSec float64) []Class {
	out := make([]Class, len(classes))
	for l, cl := range classes {
		out[l] = Class{Name: cl.Name, Items: make([]Item, len(cl.Items))}
		for j, it := range cl.Items {
			rate := hz[it.Label]
			if rate <= 0 || it.TimeSec <= 0 {
				out[l].Items[j] = it
				continue
			}
			t := float64(it.TimeSec)
			attempts := ExpectedAttempts(t, rate)
			busy := ExpectedBusySec(t, rate)
			adj := it
			adj.TimeSec = int(math.Ceil(busy + (attempts-1)*backoffSec))
			adj.Cost = it.Cost / t * busy
			out[l].Items[j] = adj
		}
	}
	return out
}

// refCacheAdjust is the cache rewrite as it stood before the merge:
// every item of a hit class collapsed to the probe constant, the input
// returned as is when nothing hits.
func refCacheAdjust(classes []Class, hits []bool, probeSec int) []Class {
	if probeSec < 0 {
		probeSec = 0
	}
	any := false
	for l := range classes {
		if l < len(hits) && hits[l] {
			any = true
			break
		}
	}
	if !any {
		return classes
	}
	out := make([]Class, len(classes))
	for l, cl := range classes {
		if l >= len(hits) || !hits[l] {
			out[l] = cl
			continue
		}
		adj := Class{Name: cl.Name, Items: make([]Item, len(cl.Items))}
		for j, it := range cl.Items {
			adj.Items[j] = Item{Label: it.Label, TimeSec: probeSec, Cost: 0}
		}
		out[l] = adj
	}
	return out
}

// refAdjust stacks the two old rewrites the way the batch optimizer
// did: risk first (only when hazards are given), cache second.
func refAdjust(classes []Class, hits []bool, hz Hazards, backoffSec float64) []Class {
	if len(hz) > 0 {
		classes = refRiskAdjust(classes, hz, backoffSec)
	}
	return refCacheAdjust(classes, hits, cache.ProbeTimeSec)
}

var adjustLabels = []string{"od", "spot.a", "spot.b", "spot.c"}

// randomAdjustCase draws a table with runtimes from 0 s to past the
// cap at the largest rates, a hit vector that may be nil, short,
// all-false or mixed, and a hazard map that may be nil, all-zero or
// name labels the table lacks.
func randomAdjustCase(rng *rand.Rand) ([]Class, []bool, Hazards, float64) {
	classes := make([]Class, 1+rng.Intn(5))
	for l := range classes {
		classes[l].Name = fmt.Sprintf("s%d", l)
		for j := 1 + rng.Intn(5); j > 0; j-- {
			it := Item{Label: adjustLabels[rng.Intn(len(adjustLabels))], TimeSec: rng.Intn(20000), Cost: float64(rng.Intn(400)) / 100}
			if rng.Intn(6) == 0 {
				it.TimeSec = 0
			}
			classes[l].Items = append(classes[l].Items, it)
		}
	}
	var hits []bool
	if rng.Intn(4) > 0 {
		hits = make([]bool, rng.Intn(len(classes)+2))
		for l := range hits {
			hits[l] = rng.Intn(3) == 0
		}
	}
	var hz Hazards
	switch rng.Intn(4) {
	case 0:
	case 1:
		hz = Hazards{"spot.a": 0, "absent": 50}
	default:
		hz = Hazards{}
		for _, label := range adjustLabels[1:] {
			if rng.Intn(3) > 0 {
				hz[label] = []float64{0, 0.5, 6, 60, 240, 3600}[rng.Intn(6)] * (0.5 + rng.Float64())
			}
		}
	}
	backoff := []float64{0, 30, 120.5}[rng.Intn(3)]
	return classes, hits, hz, backoff
}

// requireSameTable fails unless the two tables agree in shape, names,
// labels, runtimes and every cost bit.
func requireSameTable(t *testing.T, what string, got, want []Class) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d classes, want %d", what, len(got), len(want))
	}
	for l := range want {
		if got[l].Name != want[l].Name || len(got[l].Items) != len(want[l].Items) {
			t.Fatalf("%s: class %d is %s/%d items, want %s/%d", what, l,
				got[l].Name, len(got[l].Items), want[l].Name, len(want[l].Items))
		}
		for j, w := range want[l].Items {
			g := got[l].Items[j]
			if g.Label != w.Label || g.TimeSec != w.TimeSec || math.Float64bits(g.Cost) != math.Float64bits(w.Cost) {
				t.Fatalf("%s: class %d item %d is %+v, want %+v", what, l, j, g, w)
			}
		}
	}
}

// TestAdjustMatchesReference: on seeded tables × hit vectors × hazard
// maps × backoffs the one-pass transform equals the cache rewrite
// stacked on the risk rewrite bit for bit, leaves its input alone, and
// equals itself applied in two steps (risk at registration, hits per
// event, as the serving layer applies it).
func TestAdjustMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		classes, hits, hz, backoff := randomAdjustCase(rng)
		before := refRiskAdjust(classes, nil, 0) // a deep copy
		what := fmt.Sprintf("seed %d (hits %v, hazards %v, backoff %g)", seed, hits, hz, backoff)

		got := Adjust(classes, hits, hz, backoff)
		requireSameTable(t, what, got, refAdjust(classes, hits, hz, backoff))
		requireSameTable(t, what+" two-step", Adjust(Adjust(classes, nil, hz, backoff), hits, nil, 0), got)
		requireSameTable(t, what+" input", classes, before)
	}
}
