package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"edacloud/internal/par"
)

// The three row kernels as they were before they were register-blocked:
// one term at a time, out row reloaded per term. They define what the
// kernels in mat.go must produce, bit for bit — the order in which an
// out element receives its terms, and which terms are skipped.

func refMulRows(a, b, out *Dense, lo, hi int) {
	for i := lo; i < hi; i++ {
		oRow := out.Row(i)
		aRow := a.Row(i)
		for k := 0; k < a.Cols; k++ {
			aik := aRow[k]
			if aik == 0 {
				continue
			}
			bRow := b.Row(k)
			for j := range oRow {
				oRow[j] += aik * bRow[j]
			}
		}
	}
}

func refMulATBRows(a, b, out *Dense, lo, hi int) {
	for i := lo; i < hi; i++ {
		oRow := out.Row(i)
		for r := 0; r < a.Rows; r++ {
			av := a.Data[r*a.Cols+i]
			if av == 0 {
				continue
			}
			bRow := b.Row(r)
			for j, bv := range bRow {
				oRow[j] += av * bv
			}
		}
	}
}

func refMulABTRows(a, b, out *Dense, lo, hi int) {
	for i := lo; i < hi; i++ {
		aRow := a.Row(i)
		oRow := out.Row(i)
		for j := 0; j < b.Rows; j++ {
			bRow := b.Row(j)
			var acc float64
			for k, av := range aRow {
				acc += av * bRow[k]
			}
			oRow[j] = acc
		}
	}
}

// hostileDense mixes ordinary values with the ones a blocked kernel
// could get wrong: a quarter zeros of either sign (the skip), denormals
// and magnitudes spread over sixty binades (so any reordering of a sum
// rounds differently) and, when nonFinite is set, a sprinkle of
// infinities and NaN (what a skipped zero hides). Half the shapes stay
// finite: a NaN in a long sum would hide the order of everything else.
func hostileDense(rng *rand.Rand, rows, cols int, nonFinite bool) *Dense {
	m := New(rows, cols)
	for i := range m.Data {
		switch r := rng.Intn(64); {
		case r < 12:
			m.Data[i] = 0
		case r < 16:
			m.Data[i] = math.Copysign(0, -1)
		case r < 19 && nonFinite:
			m.Data[i] = []float64{math.Inf(1), math.Inf(-1), math.NaN()}[r-16]
		case r < 22:
			m.Data[i] = math.Float64frombits(uint64(rng.Int63n(1<<52))) * float64(1-2*rng.Intn(2))
		default:
			m.Data[i] = math.Ldexp(rng.NormFloat64(), rng.Intn(61)-30)
		}
	}
	return m
}

// bits is math.Float64bits with every NaN mapped to one pattern. Which
// of two NaN operands an add returns is decided by the order the
// compiler hands them to the instruction, not by the order of the sum,
// so a NaN's sign and payload are the one thing the contract leaves
// open; that the element is NaN is pinned like any other value.
func bits(v float64) uint64 {
	if v != v {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(v)
}

func sameBits(t *testing.T, name string, got, want *Dense) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range want.Data {
		if bits(got.Data[i]) != bits(v) {
			t.Fatalf("%s: element (%d,%d) = %016x, want %016x", name,
				i/want.Cols, i%want.Cols, math.Float64bits(got.Data[i]), math.Float64bits(v))
		}
	}
}

// kernelDim draws a dimension that is rarely a multiple of 4 and, one
// time in three, crosses the 64-entry gather buffer and ATB tile.
func kernelDim(rng *rand.Rand) int {
	if rng.Intn(3) == 0 {
		return gatherWidth - 3 + rng.Intn(2*gatherWidth+8) // 61..199
	}
	return 1 + rng.Intn(23)
}

// TestKernelsMatchReference: each blocked kernel against its reference
// on random shapes and hostile operands, over the whole row range and
// over a split one, equal under bits.
func TestKernelsMatchReference(t *testing.T) {
	kernels := []struct {
		name     string
		ref, got func(a, b, out *Dense, lo, hi int)
		// shape returns a, b and out dimensions for drawn m, k, n.
		shape func(m, k, n int) (ar, ac, br, bc, or, oc int)
	}{
		{"mulRows", refMulRows, mulRows, func(m, k, n int) (int, int, int, int, int, int) { return m, k, k, n, m, n }},
		{"mulATBRows", refMulATBRows, mulATBRows, func(m, k, n int) (int, int, int, int, int, int) { return k, m, k, n, m, n }},
		{"mulABTRows", refMulABTRows, mulABTRows, func(m, k, n int) (int, int, int, int, int, int) { return m, k, n, k, m, n }},
	}
	rng := rand.New(rand.NewSource(20))
	crossed, odd := 0, 0
	const shapes = 360
	for s := 0; s < shapes; s++ {
		m, k, n := kernelDim(rng), kernelDim(rng), kernelDim(rng)
		if m > gatherWidth || k > gatherWidth || n > gatherWidth {
			crossed++
		}
		if m%4 != 0 && k%4 != 0 && n%4 != 0 {
			odd++
		}
		for _, kr := range kernels {
			ar, ac, br, bc, or, oc := kr.shape(m, k, n)
			a, b := hostileDense(rng, ar, ac, s%2 == 0), hostileDense(rng, br, bc, s%2 == 0)
			name := fmt.Sprintf("%s m=%d k=%d n=%d", kr.name, m, k, n)

			want := New(or, oc)
			kr.ref(a, b, want, 0, or)
			got := New(or, oc)
			kr.got(a, b, got, 0, or)
			sameBits(t, name, got, want)

			// The same rows computed as three ranges, out of order.
			c1, c2 := rng.Intn(or+1), rng.Intn(or+1)
			if c1 > c2 {
				c1, c2 = c2, c1
			}
			split := New(or, oc)
			kr.got(a, b, split, c2, or)
			kr.got(a, b, split, 0, c1)
			kr.got(a, b, split, c1, c2)
			sameBits(t, name+" split", split, want)
		}
	}
	if crossed < shapes/3 || odd < shapes/3 {
		t.Fatalf("shape generator too tame: %d of %d cross %d, %d have no multiple of 4", crossed, shapes, gatherWidth, odd)
	}
}

// TestPooledKernelsMatchReference: the exported entry points, on shapes
// over the parallel threshold, at 1, 2 and 8 workers, into a dirty out.
func TestPooledKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for s := 0; s < 6; s++ {
		m, k, n := 150+rng.Intn(120), 61+rng.Intn(80), 33+rng.Intn(70)
		a := hostileDense(rng, m, k, s%2 == 0)
		b := hostileDense(rng, k, n, s%2 == 0) // Mul: m×k · k×n
		c := hostileDense(rng, m, n, s%2 == 0) // ATB: (m×k)ᵀ · m×n
		d := hostileDense(rng, n, k, s%2 == 0) // ABT: m×k · (n×k)ᵀ
		wantMul, wantATB, wantABT := New(m, n), New(k, n), New(m, n)
		refMulRows(a, b, wantMul, 0, m)
		refMulATBRows(a, c, wantATB, 0, k)
		refMulABTRows(a, d, wantABT, 0, m)
		for _, w := range []int{1, 2, 8} {
			p := par.Fixed(w)
			name := fmt.Sprintf("workers=%d m=%d k=%d n=%d", w, m, k, n)
			sameBits(t, "MulPool "+name, MulPool(p, a, b, hostileDense(rng, m, n, true)), wantMul)
			sameBits(t, "MulATBPool "+name, MulATBPool(p, a, c, hostileDense(rng, k, n, true)), wantATB)
			sameBits(t, "MulABTPool "+name, MulABTPool(p, a, d, hostileDense(rng, m, n, true)), wantABT)
		}
	}
}

// TestMulAddMatchesReference: the fused kernel against what it
// replaces — MulPool of each product, then AddInPlace — on hostile
// operands, over the whole row range and a split one, and through
// MulAddPool at 1, 2 and 8 workers into a dirty out. One shape in three
// is wider than the stack buffer, so a row's second product takes more
// than one column block.
func TestMulAddMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	wide := 0
	const shapes = 60
	for s := 0; s < shapes; s++ {
		m, k1, k2, n := kernelDim(rng), kernelDim(rng), kernelDim(rng), kernelDim(rng)
		if s%3 == 0 {
			n = sumWidth - 3 + rng.Intn(sumWidth+8)
		}
		if n > sumWidth {
			wide++
		}
		if s%10 == 0 {
			m = 150 + rng.Intn(120) // over the parallel threshold
		}
		nonFinite := s%2 == 0
		a, b := hostileDense(rng, m, k1, nonFinite), hostileDense(rng, k1, n, nonFinite)
		c, d := hostileDense(rng, m, k2, nonFinite), hostileDense(rng, k2, n, nonFinite)
		name := fmt.Sprintf("m=%d k1=%d k2=%d n=%d", m, k1, k2, n)

		want := MulPool(nil, a, b, nil)
		AddInPlace(want, MulPool(nil, c, d, nil))

		got := New(m, n)
		mulAddRows(a, b, c, d, got, 0, m)
		sameBits(t, "mulAddRows "+name, got, want)

		c1, c2 := rng.Intn(m+1), rng.Intn(m+1)
		if c1 > c2 {
			c1, c2 = c2, c1
		}
		split := New(m, n)
		mulAddRows(a, b, c, d, split, c2, m)
		mulAddRows(a, b, c, d, split, 0, c1)
		mulAddRows(a, b, c, d, split, c1, c2)
		sameBits(t, "mulAddRows split "+name, split, want)

		for _, w := range []int{1, 2, 8} {
			got := MulAddPool(par.Fixed(w), a, b, c, d, hostileDense(rng, m, n, true))
			sameBits(t, fmt.Sprintf("MulAddPool workers=%d %s", w, name), got, want)
		}
	}
	if wide < shapes/4 {
		t.Fatalf("shape generator too tame: %d of %d shapes wider than %d", wide, shapes, sumWidth)
	}
}
