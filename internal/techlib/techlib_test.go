package techlib

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTableLookupCorners(t *testing.T) {
	tab := Table{
		Slews:  []float64{0.0, 1.0},
		Loads:  []float64{0.0, 2.0},
		Values: [][]float64{{1, 3}, {5, 7}},
	}
	cases := []struct {
		slew, load, want float64
	}{
		{0, 0, 1}, {0, 2, 3}, {1, 0, 5}, {1, 2, 7}, // corners
		{0.5, 1, 4},      // center: mean of all corners
		{-5, -5, 1},      // clamp below
		{9, 9, 7},        // clamp above
		{0, 1, 2},        // edge midpoint
		{0.5, 0, 3},      // edge midpoint
		{0.25, 0.5, 2.5}, // general bilinear: fi=0.25, fj=0.25
	}
	for _, c := range cases {
		if got := tab.Lookup(c.slew, c.load); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Lookup(%g,%g) = %g, want %g", c.slew, c.load, got, c.want)
		}
	}
}

func TestTableLookupSinglePoint(t *testing.T) {
	tab := Table{Slews: []float64{0.01}, Loads: []float64{0.004}, Values: [][]float64{{0.42}}}
	if got := tab.Lookup(5, 5); got != 0.42 {
		t.Fatalf("single-point table lookup = %g", got)
	}
}

func TestQuickLookupWithinBounds(t *testing.T) {
	lib := Default14nm()
	arc := lib.MustCell("NAND2_X1").Arcs[0]
	minV, maxV := math.Inf(1), math.Inf(-1)
	for _, row := range arc.Delay.Values {
		for _, v := range row {
			minV = math.Min(minV, v)
			maxV = math.Max(maxV, v)
		}
	}
	f := func(slew, load float64) bool {
		v := arc.Delay.Lookup(math.Abs(slew), math.Abs(load))
		return v >= minV-1e-12 && v <= maxV+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDefault14nmSanity(t *testing.T) {
	lib := Default14nm()
	if len(lib.Cells) < 20 {
		t.Fatalf("library too small: %d cells", len(lib.Cells))
	}
	for _, c := range lib.Cells {
		if c.Area <= 0 {
			t.Errorf("%s: non-positive area", c.Name)
		}
		if !c.Seq && len(c.Arcs) != len(c.Inputs) {
			t.Errorf("%s: %d arcs for %d inputs", c.Name, len(c.Arcs), len(c.Inputs))
		}
		for _, a := range c.Arcs {
			if len(a.Delay.Slews) == 0 || len(a.Delay.Loads) == 0 {
				t.Errorf("%s/%s: empty delay table", c.Name, a.From)
			}
			if a.Delay.Lookup(0.01, 0.002) <= 0 {
				t.Errorf("%s/%s: non-positive delay", c.Name, a.From)
			}
		}
	}
	if lib.Cell("NO_SUCH_CELL") != nil {
		t.Fatal("lookup of absent cell returned non-nil")
	}
}

func TestMustCellPanics(t *testing.T) {
	lib := Default14nm()
	defer func() {
		if recover() == nil {
			t.Fatal("MustCell on absent cell did not panic")
		}
	}()
	lib.MustCell("NO_SUCH_CELL")
}

func TestCellFunctions(t *testing.T) {
	lib := Default14nm()
	check := func(name string, fn func(ins uint16) bool) {
		c := lib.MustCell(name)
		rows := uint16(1) << len(c.Inputs)
		for b := uint16(0); b < rows; b++ {
			if got, want := c.Eval(b), fn(b); got != want {
				t.Errorf("%s(%0*b) = %v, want %v", name, len(c.Inputs), b, got, want)
			}
		}
	}
	check("INV_X1", func(b uint16) bool { return b&1 == 0 })
	check("BUF_X2", func(b uint16) bool { return b&1 == 1 })
	check("NAND2_X1", func(b uint16) bool { return !(b&1 == 1 && b>>1&1 == 1) })
	check("NOR2_X2", func(b uint16) bool { return b&3 == 0 })
	check("XOR2_X1", func(b uint16) bool { return (b&1)^(b>>1&1) == 1 })
	check("AND3_X1", func(b uint16) bool { return b&7 == 7 })
	check("AOI21_X1", func(b uint16) bool { return !((b&1 == 1 && b>>1&1 == 1) || b>>2&1 == 1) })
	check("OAI21_X1", func(b uint16) bool { return !((b&1 == 1 || b>>1&1 == 1) && b>>2&1 == 1) })
	check("MUX2_X1", func(b uint16) bool {
		if b>>2&1 == 1 {
			return b>>1&1 == 1
		}
		return b&1 == 1
	})
}

func TestMatchTTFindsPermutations(t *testing.T) {
	lib := Default14nm()
	// !(C & (A|B)) is OAI21 with its C pin moved: over leaves (x,y,z)
	// query the function !((y|z) & x).
	var tt uint16
	for b := 0; b < 8; b++ {
		x := b&1 == 1
		y := b>>1&1 == 1
		z := b>>2&1 == 1
		if !((y || z) && x) {
			tt |= 1 << b
		}
	}
	matches := lib.MatchTT(tt, 3)
	found := false
	for _, m := range matches {
		if m.Cell.Name != "OAI21_X1" {
			continue
		}
		found = true
		// Verify the permutation: leaf i -> cell input m.Perm[i].
		for b := uint16(0); b < 8; b++ {
			var cellIns uint16
			for leaf := 0; leaf < 3; leaf++ {
				if b>>leaf&1 == 1 {
					cellIns |= 1 << m.Perm[leaf]
				}
			}
			if m.Cell.Eval(cellIns) != (tt>>b&1 == 1) {
				t.Fatalf("permutation wrong at row %d", b)
			}
		}
	}
	if !found {
		t.Fatal("OAI21 not matched under permutation")
	}
}

func TestMatchTTInverter(t *testing.T) {
	lib := Default14nm()
	matches := lib.MatchTT(0b01, 1)
	names := map[string]bool{}
	for _, m := range matches {
		names[m.Cell.Name] = true
	}
	for _, want := range []string{"INV_X1", "INV_X2", "INV_X4"} {
		if !names[want] {
			t.Errorf("inverter match missing %s (got %v)", want, names)
		}
	}
}

func TestPermuteTTIdentityAndInverse(t *testing.T) {
	tt := uint16(0b10010110)
	id := []int{0, 1, 2}
	if got := permuteTT(tt, id, 3); got != tt {
		t.Fatalf("identity permutation changed TT: %b -> %b", tt, got)
	}
	perm := []int{2, 0, 1}
	inv := []int{1, 2, 0}
	if got := permuteTT(permuteTT(tt, perm, 3), inv, 3); got != tt {
		t.Fatalf("perm∘inv != id: %b", got)
	}
}

func TestArcFrom(t *testing.T) {
	c := Default14nm().MustCell("NAND2_X1")
	if a := c.ArcFrom("A"); a == nil || a.From != "A" {
		t.Fatal("ArcFrom(A) failed")
	}
	if c.ArcFrom("Z") != nil {
		t.Fatal("ArcFrom on absent pin should be nil")
	}
	if c.InputCap(0) <= 0 {
		t.Fatal("non-positive input cap")
	}
}

func TestDriveStrengthOrdering(t *testing.T) {
	lib := Default14nm()
	// Higher drive must be faster under the same heavy load.
	d1 := lib.MustCell("INV_X1").Arcs[0].Delay.Lookup(0.01, 0.05)
	d4 := lib.MustCell("INV_X4").Arcs[0].Delay.Lookup(0.01, 0.05)
	if d4 >= d1 {
		t.Fatalf("INV_X4 (%.4g) not faster than INV_X1 (%.4g) under load", d4, d1)
	}
}
