// Package mat provides the dense float64 matrix kernels underlying the
// GCN runtime predictor: row-major storage, multiplication,
// transposed-operand products for backpropagation, and elementwise
// helpers.
//
// # Kernels
//
// The three products are register-blocked, not reassociated. Mul and
// MulATB gather the non-zero coefficients of up to gatherWidth
// consecutive terms of an out row into a stack buffer and then add four
// scaled b rows per pass over the out row, so out is loaded and stored
// once per four terms instead of once per term; MulATB also walks its
// operands in tiles of gatherWidth rows, so the b tile every out row
// reads stays in L1. MulABT runs four dot products at a time.
//
// The contract all of them keep, and kernels_ref_test.go checks bit for
// bit against the plain triple loops: every out element receives its
// terms one at a time, in ascending order of the summed index, each
// product rounded before it is added; and a zero coefficient of a (in
// Mul and MulATB) is skipped, never multiplied, so an Inf or NaN in b
// under a zero stays ignored. Loop nests, blocking and the worker count
// are free; the order of terms per element is not.
package mat

import (
	"fmt"
	"math"
	"math/rand"

	"edacloud/internal/par"
)

// Dense is a row-major matrix. The zero value is not usable; construct
// with New or FromRows.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// New returns a zeroed Rows x Cols matrix.
func New(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows copies a slice of equal-length rows into a Dense.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return New(0, 0)
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("mat: ragged row %d (%d vs %d)", i, len(r), m.Cols))
		}
		copy(m.Row(i), r)
	}
	return m
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a shared slice.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero clears the matrix in place.
func (m *Dense) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Glorot fills the matrix with Xavier/Glorot-uniform random weights.
func (m *Dense) Glorot(rng *rand.Rand) {
	limit := math.Sqrt(6 / float64(m.Rows+m.Cols))
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * limit
	}
}

// parFlops is the kernel work (multiply-add count) below which the
// parallel paths are not worth their scheduling overhead.
const parFlops = 1 << 15

// rowGrain sizes row chunks so each holds roughly parFlops work.
func rowGrain(rows, flopsPerRow int) int {
	if flopsPerRow < 1 {
		flopsPerRow = 1
	}
	g := parFlops / flopsPerRow
	if g < 1 {
		g = 1
	}
	if g > rows {
		g = rows
	}
	return g
}

// Mul computes out = a * b, allocating out when nil is passed.
func Mul(a, b, out *Dense) *Dense { return MulPool(par.Default(), a, b, out) }

// MulPool is Mul on an explicit worker pool. Rows of out are
// partitioned across workers; each row's accumulation order matches
// the serial kernel exactly, so the result is bit-identical for any
// pool size.
func MulPool(p *par.Pool, a, b, out *Dense) *Dense {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul shape mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out = prep(out, a.Rows, b.Cols)
	flopsPerRow := a.Cols * b.Cols
	if p.Workers() > 1 && a.Rows*flopsPerRow >= parFlops {
		p.For(a.Rows, rowGrain(a.Rows, flopsPerRow), func(lo, hi int) {
			mulRows(a, b, out, lo, hi)
		})
	} else {
		mulRows(a, b, out, 0, a.Rows)
	}
	return out
}

// gatherWidth is how many consecutive terms of an out row the Mul and
// MulATB kernels gather before applying them, and the height of
// MulATB's row tiles.
const gatherWidth = 64

// terms is the gather buffer: the non-zero coefficients of one segment
// of an out row's sum, in ascending order, each with the row of b it
// scales. It lives on the kernel's stack.
type terms struct {
	n    int
	coef [gatherWidth]float64
	row  [gatherWidth]int32
}

// addTo adds coef[t] * b.Row(row[t]) to o for t = 0..n-1: four rows per
// pass, each element still taking its terms one by one in that order.
func (ts *terms) addTo(o []float64, b *Dense) {
	t := 0
	for ; t+4 <= ts.n; t += 4 {
		c0, c1, c2, c3 := ts.coef[t], ts.coef[t+1], ts.coef[t+2], ts.coef[t+3]
		// Pre-cut to len(o): the inner loop carries no bounds check.
		b0 := b.Row(int(ts.row[t]))[:len(o)]
		b1 := b.Row(int(ts.row[t+1]))[:len(o)]
		b2 := b.Row(int(ts.row[t+2]))[:len(o)]
		b3 := b.Row(int(ts.row[t+3]))[:len(o)]
		for j, v := range o {
			v += c0 * b0[j]
			v += c1 * b1[j]
			v += c2 * b2[j]
			v += c3 * b3[j]
			o[j] = v
		}
	}
	for ; t < ts.n; t++ {
		c := ts.coef[t]
		bRow := b.Row(int(ts.row[t]))[:len(o)]
		for j := range o {
			o[j] += c * bRow[j]
		}
	}
}

// mulRows computes rows [lo, hi) of out = a * b: out row i is the sum
// over k, ascending, of a[i][k] * b row k, zero a[i][k] skipped.
func mulRows(a, b, out *Dense, lo, hi int) {
	var ts terms
	for i := lo; i < hi; i++ {
		oRow := out.Row(i)
		aRow := a.Row(i)
		for k0 := 0; k0 < len(aRow); k0 += gatherWidth {
			ts.n = 0
			for k, aik := range aRow[k0:min(k0+gatherWidth, len(aRow))] {
				if aik == 0 {
					continue
				}
				ts.coef[ts.n], ts.row[ts.n] = aik, int32(k0+k)
				ts.n++
			}
			ts.addTo(oRow, b)
		}
	}
}

// MulATB computes out = aᵀ * b (for weight gradients).
func MulATB(a, b, out *Dense) *Dense { return MulATBPool(par.Default(), a, b, out) }

// MulATBPool is MulATB on an explicit worker pool, partitioned over
// rows of out (columns of a). Each (i, j) accumulates over a's rows
// in ascending order exactly as the serial kernel does, so results
// are bit-identical for any pool size.
func MulATBPool(p *par.Pool, a, b, out *Dense) *Dense {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: MulATB shape mismatch %dx%d, %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out = prep(out, a.Cols, b.Cols)
	flopsPerRow := a.Rows * b.Cols
	if p.Workers() > 1 && a.Cols*flopsPerRow >= parFlops {
		p.For(a.Cols, rowGrain(a.Cols, flopsPerRow), func(lo, hi int) {
			mulATBRows(a, b, out, lo, hi)
		})
	} else {
		mulATBRows(a, b, out, 0, a.Cols)
	}
	return out
}

// mulATBRows computes rows [lo, hi) of out = aᵀ * b: out row i is the
// sum over r, ascending, of a[r][i] * b row r, zero a[r][i] skipped.
// The tile loop is outermost so that every out row reads the same
// gatherWidth rows of b before the kernel moves on; each out row still
// meets its tiles, and so its terms, in ascending order.
func mulATBRows(a, b, out *Dense, lo, hi int) {
	var ts terms
	for r0 := 0; r0 < a.Rows; r0 += gatherWidth {
		r1 := min(r0+gatherWidth, a.Rows)
		for i := lo; i < hi; i++ {
			ts.n = 0
			for r := r0; r < r1; r++ {
				av := a.Data[r*a.Cols+i]
				if av == 0 {
					continue
				}
				ts.coef[ts.n], ts.row[ts.n] = av, int32(r)
				ts.n++
			}
			ts.addTo(out.Row(i), b)
		}
	}
}

// MulABT computes out = a * bᵀ (for input gradients).
func MulABT(a, b, out *Dense) *Dense { return MulABTPool(par.Default(), a, b, out) }

// MulABTPool is MulABT on an explicit worker pool, partitioned over
// rows of out (rows of a); dot products keep their serial order, so
// results are bit-identical for any pool size.
func MulABTPool(p *par.Pool, a, b, out *Dense) *Dense {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulABT shape mismatch %dx%d, %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out = prep(out, a.Rows, b.Rows)
	flopsPerRow := a.Cols * b.Rows
	if p.Workers() > 1 && a.Rows*flopsPerRow >= parFlops {
		p.For(a.Rows, rowGrain(a.Rows, flopsPerRow), func(lo, hi int) {
			mulABTRows(a, b, out, lo, hi)
		})
	} else {
		mulABTRows(a, b, out, 0, a.Rows)
	}
	return out
}

// mulABTRows computes rows [lo, hi) of out = a * bᵀ, four dot products
// at a time: four independent accumulators, each summing its own
// products in ascending k from zero.
func mulABTRows(a, b, out *Dense, lo, hi int) {
	for i := lo; i < hi; i++ {
		aRow := a.Row(i)
		oRow := out.Row(i)
		j := 0
		for ; j+4 <= b.Rows; j += 4 {
			b0 := b.Row(j)[:len(aRow)]
			b1 := b.Row(j + 1)[:len(aRow)]
			b2 := b.Row(j + 2)[:len(aRow)]
			b3 := b.Row(j + 3)[:len(aRow)]
			var s0, s1, s2, s3 float64
			for k, av := range aRow {
				s0 += av * b0[k]
				s1 += av * b1[k]
				s2 += av * b2[k]
				s3 += av * b3[k]
			}
			oRow[j], oRow[j+1], oRow[j+2], oRow[j+3] = s0, s1, s2, s3
		}
		for ; j < b.Rows; j++ {
			bRow := b.Row(j)[:len(aRow)]
			var acc float64
			for k, av := range aRow {
				acc += av * bRow[k]
			}
			oRow[j] = acc
		}
	}
}

func prep(out *Dense, rows, cols int) *Dense {
	if out == nil {
		return New(rows, cols)
	}
	if out.Rows != rows || out.Cols != cols {
		panic(fmt.Sprintf("mat: output shape %dx%d, want %dx%d", out.Rows, out.Cols, rows, cols))
	}
	out.Zero()
	return out
}

// AddInPlace computes a += b.
func AddInPlace(a, b *Dense) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("mat: AddInPlace shape mismatch")
	}
	for i, v := range b.Data {
		a.Data[i] += v
	}
}

// Scale multiplies every element by s in place.
func (m *Dense) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// ReLU applies max(0, x) in place. A non-nil mask, of m's shape, is
// filled with 1 where the activation passed through and 0 elsewhere
// (for backprop); inference passes nil.
func ReLU(m, mask *Dense) {
	if mask == nil {
		for i, v := range m.Data {
			if !(v > 0) {
				m.Data[i] = 0
			}
		}
		return
	}
	if mask.Rows != m.Rows || mask.Cols != m.Cols {
		panic("mat: ReLU mask shape mismatch")
	}
	for i, v := range m.Data {
		if v > 0 {
			mask.Data[i] = 1
		} else {
			mask.Data[i] = 0
			m.Data[i] = 0
		}
	}
}

// MulElem computes a *= b elementwise (used with ReLU masks).
func MulElem(a, b *Dense) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("mat: MulElem shape mismatch")
	}
	for i, v := range b.Data {
		a.Data[i] *= v
	}
}

// SumRows computes the column-wise sum as a 1 x Cols matrix
// (sum-pooling over graph nodes), allocating out when nil is passed.
func SumRows(m, out *Dense) *Dense {
	out = prep(out, 1, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j] += v
		}
	}
	return out
}

// Frob returns the Frobenius norm.
func (m *Dense) Frob() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}
