package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"edacloud/internal/par"
)

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 || m.At(0, 0) != 0 {
		t.Fatal("Set/At broken")
	}
	if len(m.Row(1)) != 3 || m.Row(1)[2] != 5 {
		t.Fatal("Row broken")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 0 {
		t.Fatal("Clone shares storage")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative dims accepted")
		}
	}()
	New(-1, 2)
}

func TestFromRowsValidation(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(1, 0) != 3 {
		t.Fatal("FromRows wrong")
	}
	if FromRows(nil).Rows != 0 {
		t.Fatal("empty FromRows wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ragged rows accepted")
		}
	}()
	FromRows([][]float64{{1}, {2, 3}})
}

func TestMulKnownProduct(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := MulPool(par.Fixed(0), a, b, nil)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("c[%d][%d] = %g", i, j, c.At(i, j))
			}
		}
	}
}

func TestMulShapePanics(t *testing.T) {
	a := New(2, 3)
	b := New(2, 3)
	for _, fn := range []func(){
		func() { MulPool(par.Fixed(0), a, b, nil) },               // 3 != 2
		func() { MulPool(par.Fixed(0), a, New(3, 2), New(1, 1)) }, // bad out shape
		func() { AddInPlace(a, New(3, 2)) },
		func() { MulElem(a, New(3, 2)) },
		func() { MulATBPool(par.Fixed(0), a, New(3, 3), nil) },
		func() { MulABTPool(par.Fixed(0), a, New(3, 4), nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("shape mismatch not caught")
				}
			}()
			fn()
		}()
	}
}

func randDense(rng *rand.Rand, r, c int) *Dense {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func transposeNaive(a *Dense) *Dense {
	out := New(a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			out.Set(j, i, a.At(i, j))
		}
	}
	return out
}

// Property: MulATBPool(a,b) == MulPool(aᵀ, b) and MulABTPool(a,b) == MulPool(a, bᵀ).
func TestQuickTransposedProducts(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := rng.Intn(6)+1, rng.Intn(6)+1, rng.Intn(6)+1
		a := randDense(rng, m, k)
		b := randDense(rng, m, n)
		atb := MulATBPool(par.Fixed(0), a, b, nil)
		ref := MulPool(par.Fixed(0), transposeNaive(a), b, nil)
		for i := range atb.Data {
			if math.Abs(atb.Data[i]-ref.Data[i]) > 1e-9 {
				return false
			}
		}
		c := randDense(rng, k, n)
		d := randDense(rng, m, n)
		abt := MulABTPool(par.Fixed(0), d, c, nil) // d: m x n, c: k x n -> m x k
		ref2 := MulPool(par.Fixed(0), d, transposeNaive(c), nil)
		for i := range abt.Data {
			if math.Abs(abt.Data[i]-ref2.Data[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReLUAndMask(t *testing.T) {
	m := FromRows([][]float64{{-1, 2}, {0, -3}})
	mask := FromRows([][]float64{{7, 7}, {7, 7}}) // dirty: ReLU must write every element
	ReLU(m, mask)
	if m.At(0, 0) != 0 || m.At(0, 1) != 2 || m.At(1, 1) != 0 {
		t.Fatalf("ReLU result: %+v", m.Data)
	}
	if mask.At(0, 1) != 1 || mask.At(0, 0) != 0 || mask.At(1, 0) != 0 || mask.At(1, 1) != 0 {
		t.Fatalf("mask: %+v", mask.Data)
	}
	n := FromRows([][]float64{{-1, 2}, {math.NaN(), -3}})
	ReLU(n, nil)
	if n.At(0, 0) != 0 || n.At(0, 1) != 2 || n.At(1, 0) != 0 || n.At(1, 1) != 0 {
		t.Fatalf("ReLU without a mask: %+v", n.Data)
	}
}

func TestSumRowsAndScale(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	s := SumRows(m, nil)
	if s.At(0, 0) != 9 || s.At(0, 1) != 12 {
		t.Fatalf("SumRows: %+v", s.Data)
	}
	s.Scale(0.5)
	if s.At(0, 0) != 4.5 {
		t.Fatal("Scale broken")
	}
}

func TestGlorotBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := New(10, 20)
	m.Glorot(rng)
	limit := math.Sqrt(6.0 / 30.0)
	nonZero := 0
	for _, v := range m.Data {
		if math.Abs(v) > limit {
			t.Fatalf("weight %g outside Glorot bound %g", v, limit)
		}
		if v != 0 {
			nonZero++
		}
	}
	if nonZero < len(m.Data)/2 {
		t.Fatal("Glorot left most weights zero")
	}
}

func TestZero(t *testing.T) {
	m := FromRows([][]float64{{1, 2}})
	m.Zero()
	if m.At(0, 0) != 0 || m.At(0, 1) != 0 {
		t.Fatal("Zero broken")
	}
}
