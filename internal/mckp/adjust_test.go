package mckp

import "testing"

// TestAdjustAllocatesNothingWithoutHitsOrHazards: a table with no hit
// and no hazard-bearing item comes back as the input slice without an
// allocation — the path every re-plan of the serving layer takes once
// per active job.
func TestAdjustAllocatesNothingWithoutHitsOrHazards(t *testing.T) {
	classes := []Class{
		{Name: "synthesis", Items: []Item{{Label: "od", TimeSec: 600, Cost: 0.1}, {Label: "spot", TimeSec: 0, Cost: 0}}},
		{Name: "placement", Items: []Item{{Label: "od", TimeSec: 900, Cost: 0.2}}},
	}
	for _, tc := range []struct {
		hits []bool
		hz   Hazards
	}{
		{nil, nil},
		{[]bool{false, false, false}, Hazards{}},
		{[]bool{false}, Hazards{"od": 0, "absent": 6, "spot": 6}},
	} {
		var got []Class
		if allocs := testing.AllocsPerRun(100, func() { got = Adjust(classes, tc.hits, tc.hz, 30) }); allocs != 0 {
			t.Fatalf("hits %v, hazards %v: %g allocations", tc.hits, tc.hz, allocs)
		}
		if &got[0] != &classes[0] {
			t.Fatalf("hits %v, hazards %v: input not returned", tc.hits, tc.hz)
		}
	}
}
