package mckp

import (
	"testing"

	"edacloud/internal/cache"
)

func TestCacheAdjust(t *testing.T) {
	classes := []Class{
		{Name: "synthesis", Items: []Item{{Label: "gp.1x", TimeSec: 40, Cost: 2}, {Label: "gp.8x", TimeSec: 10, Cost: 5}}},
		{Name: "placement", Items: []Item{{Label: "mem.2x", TimeSec: 30, Cost: 3}}},
	}
	adj := Adjust(classes, []bool{true, false}, nil, 0)
	for j, it := range adj[0].Items {
		if it.TimeSec != cache.ProbeTimeSec || it.Cost != 0 {
			t.Fatalf("hit item %d not collapsed: %+v", j, it)
		}
		if it.Label != classes[0].Items[j].Label {
			t.Fatalf("hit item %d lost its label", j)
		}
	}
	if adj[1].Items[0] != classes[1].Items[0] {
		t.Fatal("miss class was rewritten")
	}
	// The input must never be mutated.
	if classes[0].Items[0].TimeSec != 40 {
		t.Fatal("Adjust mutated its input")
	}
	// No hits (nil or all-false) must return the identical slice, so
	// the cache-blind path stays bit-identical.
	if got := Adjust(classes, nil, nil, 0); &got[0] != &classes[0] {
		t.Fatal("nil hits did not return the input unchanged")
	}
	if got := Adjust(classes, []bool{false, false}, nil, 0); &got[0] != &classes[0] {
		t.Fatal("all-miss hits did not return the input unchanged")
	}
	// A short hits vector treats the missing tail as misses.
	short := Adjust(classes, []bool{true}, nil, 0)
	if short[1].Items[0] != classes[1].Items[0] {
		t.Fatal("short hits vector rewrote the tail class")
	}
	// A hit books no lease, so a hazard on its labels changes nothing;
	// the miss class is risk-priced.
	risky := Adjust(classes, []bool{true, false}, Hazards{"gp.1x": 60, "gp.8x": 60, "mem.2x": 60}, 30)
	for j, it := range risky[0].Items {
		if it != adj[0].Items[j] {
			t.Fatalf("hit item %d risk-priced: %+v", j, it)
		}
	}
	if risky[1].Items[0].TimeSec <= 30 {
		t.Fatalf("miss item not risk-priced: %+v", risky[1].Items[0])
	}
	// MinTotalTime must see the collapsed runtimes.
	if mt := MinTotalTime(adj); mt != cache.ProbeTimeSec+30 {
		t.Fatalf("MinTotalTime over adjusted classes = %d, want %d", mt, cache.ProbeTimeSec+30)
	}
}
