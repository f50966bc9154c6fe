// Package techlib provides a synthetic 14nm-class standard-cell library
// used by the technology mapper, the placer and the static timing
// engine. The library substitutes for the proprietary GF 14nm kit used
// in the paper: cell functions, areas and non-linear delay-model (NLDM)
// tables are generated from an analytical RC model calibrated to
// plausible 14nm magnitudes (picosecond gate delays, femtofarad pin
// capacitances, square-micron areas).
//
// Combinational cell logic functions are stored as truth tables over the
// input pins in declaration order, enabling exact Boolean matching
// during technology mapping (see internal/synth).
package techlib

import (
	"fmt"
	"math"
	"sort"

	"edacloud/internal/hash"
)

// Table is a two-dimensional NLDM lookup table indexed by input slew
// (rows) and output load (columns).
type Table struct {
	Slews  []float64 // ascending input transition times (ns)
	Loads  []float64 // ascending output capacitive loads (pF)
	Values [][]float64
}

// Lookup returns the bilinear interpolation of the table at the given
// slew and load, clamping to the table boundary outside the indexed
// region (the standard EDA extrapolation-free convention).
func (t *Table) Lookup(slew, load float64) float64 {
	i0, i1, fi := bracket(t.Slews, slew)
	j0, j1, fj := bracket(t.Loads, load)
	v00 := t.Values[i0][j0]
	v01 := t.Values[i0][j1]
	v10 := t.Values[i1][j0]
	v11 := t.Values[i1][j1]
	return v00*(1-fi)*(1-fj) + v01*(1-fi)*fj + v10*fi*(1-fj) + v11*fi*fj
}

// bracket finds indices i0<=i1 and fraction f such that x sits between
// axis[i0] and axis[i1], clamped to the axis range.
func bracket(axis []float64, x float64) (int, int, float64) {
	n := len(axis)
	if n == 1 || x <= axis[0] {
		return 0, 0, 0
	}
	if x >= axis[n-1] {
		return n - 1, n - 1, 0
	}
	i := sort.SearchFloat64s(axis, x)
	// axis[i-1] < x <= axis[i] here (Search returns first >= x).
	if axis[i] == x {
		return i, i, 0
	}
	lo, hi := i-1, i
	f := (x - axis[lo]) / (axis[hi] - axis[lo])
	return lo, hi, f
}

// Pin describes a cell input pin.
type Pin struct {
	Name string
	Cap  float64 // input pin capacitance (pF)
}

// Arc is a timing arc from one input pin to the cell output, carrying
// NLDM delay and output-slew tables.
type Arc struct {
	From  string
	Delay Table // ns
	Slew  Table // ns
}

// Cell is a standard cell. Combinational cells have a single output
// whose function over the input pins (in declaration order) is given by
// TT: bit b of TT is the output under the input assignment where input
// i takes bit i of b.
type Cell struct {
	Name    string
	Area    float64 // um^2
	Leakage float64 // nW
	Inputs  []Pin
	Output  string
	TT      uint16 // truth table over len(Inputs) <= 4 inputs
	Arcs    []Arc
	MaxCap  float64 // max output load (pF)
	Seq     bool    // sequential element (DFF); TT is ignored
}

// NumInputs returns the number of input pins.
func (c *Cell) NumInputs() int { return len(c.Inputs) }

// InputCap returns the capacitance of input pin i.
func (c *Cell) InputCap(i int) float64 { return c.Inputs[i].Cap }

// ArcFrom returns the timing arc from the named input pin, or nil.
func (c *Cell) ArcFrom(pin string) *Arc {
	for i := range c.Arcs {
		if c.Arcs[i].From == pin {
			return &c.Arcs[i]
		}
	}
	return nil
}

// Eval evaluates the cell function for the given input bits (bit i of
// ins is input pin i).
func (c *Cell) Eval(ins uint16) bool {
	return c.TT>>(ins&((1<<len(c.Inputs))-1))&1 == 1
}

// Library is a collection of standard cells plus derived matching
// indexes.
type Library struct {
	Name  string
	Cells []*Cell

	byName map[string]*Cell
	// match maps (inputs, canonical permuted truth table) to candidate
	// cells with the pin permutation that realizes the function:
	// perm[i] = cell pin index receiving cut leaf i.
	match map[matchKey][]Match
}

// Fingerprint returns the library's canonical content hash: its name
// plus every cell's name, function, area and pin count — the
// properties that shape mapping, placement and timing results.
func (lib *Library) Fingerprint() uint64 {
	h := hash.New()
	h.Str(lib.Name)
	h.Int(len(lib.Cells))
	for _, c := range lib.Cells {
		h.Str(c.Name)
		h.F64(c.Area)
		h.Word(uint64(c.TT))
		h.Int(len(c.Inputs))
		if c.Seq {
			h.Int(1)
		} else {
			h.Int(0)
		}
	}
	return uint64(h)
}

type matchKey struct {
	n  int
	tt uint16
}

// Match pairs a cell with the input permutation under which its
// function equals the queried truth table.
type Match struct {
	Cell *Cell
	Perm []int // cut leaf i connects to cell input Perm[i]
}

// NewLibrary builds a library from cells and constructs the matching
// index over all input permutations of every combinational cell.
func NewLibrary(name string, cells []*Cell) *Library {
	lib := &Library{
		Name:   name,
		Cells:  cells,
		byName: make(map[string]*Cell, len(cells)),
		match:  make(map[matchKey][]Match),
	}
	for _, c := range cells {
		lib.byName[c.Name] = c
		if c.Seq || len(c.Inputs) == 0 {
			continue
		}
		n := len(c.Inputs)
		permute(n, func(perm []int) {
			tt := permuteTT(c.TT, perm, n)
			key := matchKey{n, tt}
			// Deduplicate: symmetric cells generate the same TT under
			// several permutations; keep the first.
			for _, m := range lib.match[key] {
				if m.Cell == c {
					return
				}
			}
			p := append([]int(nil), perm...)
			lib.match[key] = append(lib.match[key], Match{Cell: c, Perm: p})
		})
	}
	return lib
}

// Cell returns the named cell, or nil when absent.
func (lib *Library) Cell(name string) *Cell { return lib.byName[name] }

// MustCell returns the named cell and panics when absent.
func (lib *Library) MustCell(name string) *Cell {
	c := lib.byName[name]
	if c == nil {
		panic(fmt.Sprintf("techlib: no cell %q in library %s", name, lib.Name))
	}
	return c
}

// MatchTT returns the cells (with pin permutations) whose function over
// n inputs equals truth table tt.
func (lib *Library) MatchTT(tt uint16, n int) []Match {
	return lib.match[matchKey{n, tt & mask(n)}]
}

func mask(n int) uint16 {
	if n >= 4 {
		return 0xffff
	}
	return uint16(1)<<(1<<n) - 1
}

// permute enumerates all permutations of [0,n) calling fn with each.
func permute(n int, fn func(perm []int)) {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			fn(perm)
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
}

// permuteTT rewires truth table tt over n inputs so that input i of the
// result corresponds to input perm[i] of the original.
func permuteTT(tt uint16, perm []int, n int) uint16 {
	var out uint16
	rows := 1 << n
	for b := 0; b < rows; b++ {
		// Build the original row index from the permuted assignment.
		var orig int
		for i := 0; i < n; i++ {
			if b>>i&1 == 1 {
				orig |= 1 << perm[i]
			}
		}
		if tt>>orig&1 == 1 {
			out |= 1 << b
		}
	}
	return out
}

// genTable builds an NLDM table from the linear model
// value = base + kSlew*slew + kLoad*load, sampled on a 5x5 grid.
func genTable(base, kSlew, kLoad float64) Table {
	slews := []float64{0.002, 0.008, 0.024, 0.06, 0.15}
	loads := []float64{0.0005, 0.002, 0.008, 0.024, 0.06}
	vals := make([][]float64, len(slews))
	for i, s := range slews {
		vals[i] = make([]float64, len(loads))
		for j, l := range loads {
			vals[i][j] = base + kSlew*s + kLoad*l
		}
	}
	return Table{Slews: slews, Loads: loads, Values: vals}
}

// cellSpec drives the synthetic library generator.
type cellSpec struct {
	name  string
	tt    uint16
	nIns  int
	area  float64
	drive float64 // relative drive strength: higher = faster under load
	seq   bool
}

// buildCell expands a spec into a full cell with per-arc NLDM tables.
// Delay magnitudes follow a 14nm-class FO4 of roughly 10-15 ps.
func buildCell(s cellSpec) *Cell {
	c := &Cell{
		Name:    s.name,
		Area:    s.area,
		Leakage: 0.5 * s.area,
		Output:  "Y",
		TT:      s.tt & mask(s.nIns),
		MaxCap:  0.06 * s.drive,
		Seq:     s.seq,
	}
	pinNames := []string{"A", "B", "C", "D"}
	for i := 0; i < s.nIns; i++ {
		c.Inputs = append(c.Inputs, Pin{
			Name: pinNames[i],
			Cap:  0.0009 * s.drive * (1 + 0.1*float64(i)),
		})
	}
	// Later pins are slightly slower arcs (series stack position).
	for i := 0; i < s.nIns; i++ {
		stack := 1 + 0.15*float64(i)
		base := 0.010 * stack * (1 + 0.3*float64(s.nIns-1)) / math.Sqrt(s.drive)
		kLoad := 0.45 / s.drive
		c.Arcs = append(c.Arcs, Arc{
			From:  pinNames[i],
			Delay: genTable(base, 0.25, kLoad),
			Slew:  genTable(base*0.8, 0.15, kLoad*1.2),
		})
	}
	if s.seq {
		c.Output = "Q"
		c.Inputs = []Pin{{Name: "D", Cap: 0.0011}, {Name: "CK", Cap: 0.0008}}
		c.Arcs = []Arc{{From: "CK", Delay: genTable(0.022, 0.2, 0.5), Slew: genTable(0.015, 0.1, 0.6)}}
	}
	return c
}

// Truth tables over pin-order inputs (bit b: input i = bit i of b).
const (
	ttBuf   uint16 = 0b10       // Y = A
	ttInv   uint16 = 0b01       // Y = !A
	ttAnd2  uint16 = 0b1000     // Y = A&B
	ttNand2 uint16 = 0b0111     // Y = !(A&B)
	ttOr2   uint16 = 0b1110     // Y = A|B
	ttNor2  uint16 = 0b0001     // Y = !(A|B)
	ttXor2  uint16 = 0b0110     // Y = A^B
	ttXnor2 uint16 = 0b1001     // Y = !(A^B)
	ttAnd3  uint16 = 0b10000000 // Y = A&B&C
	ttNand3 uint16 = 0b01111111 // Y = !(A&B&C)
	ttOr3   uint16 = 0b11111110 // Y = A|B|C
	ttNor3  uint16 = 0b00000001 // Y = !(A|B|C)
)

// aoi21TT returns !(A&B | C) over pins A,B,C.
func aoi21TT() uint16 {
	var tt uint16
	for b := 0; b < 8; b++ {
		a := b & 1
		bb := b >> 1 & 1
		c := b >> 2 & 1
		if !((a == 1 && bb == 1) || c == 1) {
			tt |= 1 << b
		}
	}
	return tt
}

// oai21TT returns !((A|B) & C) over pins A,B,C.
func oai21TT() uint16 {
	var tt uint16
	for b := 0; b < 8; b++ {
		a := b & 1
		bb := b >> 1 & 1
		c := b >> 2 & 1
		if !((a == 1 || bb == 1) && c == 1) {
			tt |= 1 << b
		}
	}
	return tt
}

// mux2TT returns S ? B : A over pins A,B,S.
func mux2TT() uint16 {
	var tt uint16
	for b := 0; b < 8; b++ {
		a := b & 1
		bb := b >> 1 & 1
		s := b >> 2 & 1
		v := a
		if s == 1 {
			v = bb
		}
		if v == 1 {
			tt |= 1 << b
		}
	}
	return tt
}

// Default14nm returns the built-in synthetic 14nm-class library with
// inverters, buffers, basic NAND/NOR/AND/OR/XOR gates in several drive
// strengths, three-input gates, AOI/OAI/MUX complex gates and a D
// flip-flop.
func Default14nm() *Library {
	specs := []cellSpec{
		{"INV_X1", ttInv, 1, 0.25, 1, false},
		{"INV_X2", ttInv, 1, 0.38, 2, false},
		{"INV_X4", ttInv, 1, 0.64, 4, false},
		{"BUF_X1", ttBuf, 1, 0.38, 1, false},
		{"BUF_X2", ttBuf, 1, 0.51, 2, false},
		{"BUF_X4", ttBuf, 1, 0.77, 4, false},
		{"NAND2_X1", ttNand2, 2, 0.38, 1, false},
		{"NAND2_X2", ttNand2, 2, 0.51, 2, false},
		{"NOR2_X1", ttNor2, 2, 0.38, 1, false},
		{"NOR2_X2", ttNor2, 2, 0.51, 2, false},
		{"AND2_X1", ttAnd2, 2, 0.51, 1, false},
		{"OR2_X1", ttOr2, 2, 0.51, 1, false},
		{"XOR2_X1", ttXor2, 2, 0.77, 1, false},
		{"XNOR2_X1", ttXnor2, 2, 0.77, 1, false},
		{"NAND3_X1", ttNand3, 3, 0.51, 1, false},
		{"NOR3_X1", ttNor3, 3, 0.51, 1, false},
		{"AND3_X1", ttAnd3, 3, 0.64, 1, false},
		{"OR3_X1", ttOr3, 3, 0.64, 1, false},
		{"AOI21_X1", aoi21TT(), 3, 0.51, 1, false},
		{"OAI21_X1", oai21TT(), 3, 0.51, 1, false},
		{"MUX2_X1", mux2TT(), 3, 0.90, 1, false},
		{"DFF_X1", 0, 0, 1.28, 1, true},
	}
	cells := make([]*Cell, len(specs))
	for i, s := range specs {
		cells[i] = buildCell(s)
	}
	return NewLibrary("synth14", cells)
}
