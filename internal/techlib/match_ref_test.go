package techlib

import "testing"

// refMatchKey and refMatchIndex are the match index the way NewLibrary
// built it before the arrays: a map from (inputs, truth table) to the
// candidates in discovery order.
type refMatchKey struct {
	n  int
	tt uint16
}

func refMatchIndex(cells []*Cell) map[refMatchKey][]Match {
	idx := make(map[refMatchKey][]Match)
	for _, c := range cells {
		if c.Seq || len(c.Inputs) == 0 {
			continue
		}
		n := len(c.Inputs)
		permute(n, func(perm []int) {
			key := refMatchKey{n, permuteTT(c.TT, perm, n)}
			for _, m := range idx[key] {
				if m.Cell == c {
					return
				}
			}
			idx[key] = append(idx[key], Match{Cell: c, Perm: append([]int(nil), perm...)})
		})
	}
	return idx
}

// TestMatchTTMatchesMapReference: for every input count up to three and
// every truth table (unmasked bits included), MatchTT returns the map
// index's candidates in the same order with the same permutations, and
// each candidate's per-leaf delay table is the one ArcFrom finds for the
// pin that leaf drives.
func TestMatchTTMatchesMapReference(t *testing.T) {
	lib := Default14nm()
	ref := refMatchIndex(lib.Cells)
	total := 0
	for n := 0; n <= 3; n++ {
		for tt := 0; tt <= 0xffff; tt++ {
			got := lib.MatchTT(uint16(tt), n)
			want := ref[refMatchKey{n, uint16(tt) & mask(n)}]
			if len(got) != len(want) {
				t.Fatalf("n=%d tt=%#x: %d matches, reference %d", n, tt, len(got), len(want))
			}
			for k := range got {
				g, w := got[k], want[k]
				if g.Cell != w.Cell || len(g.Perm) != len(w.Perm) || len(g.Delay) != n {
					t.Fatalf("n=%d tt=%#x match %d: %s %v, reference %s %v", n, tt, k, g.Cell.Name, g.Perm, w.Cell.Name, w.Perm)
				}
				for i := range g.Perm {
					if g.Perm[i] != w.Perm[i] {
						t.Fatalf("n=%d tt=%#x match %d: perm %v, reference %v", n, tt, k, g.Perm, w.Perm)
					}
					var table *Table
					if arc := g.Cell.ArcFrom(g.Cell.Inputs[g.Perm[i]].Name); arc != nil {
						table = &arc.Delay
					}
					if g.Delay[i] != table {
						t.Fatalf("n=%d tt=%#x match %d leaf %d: delay table is not ArcFrom's", n, tt, k, i)
					}
				}
			}
			if tt <= int(mask(n)) {
				total += len(got)
			}
		}
	}
	if total == 0 {
		t.Fatal("no matches at all")
	}
	for _, n := range []int{-1, 4, 9} {
		if got := lib.MatchTT(0x8, n); got != nil {
			t.Errorf("MatchTT(_, %d) = %v, want none", n, got)
		}
	}
}
