package aig

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WriteASCII serializes the graph in the ASCII AIGER (aag) format.
// Latches are not emitted; the synthesis flow treats sequential elements
// at the netlist level. Symbol-table entries are written for named
// inputs and outputs, and the graph name becomes a comment.
func (g *Graph) WriteASCII(w io.Writer) error {
	bw := bufio.NewWriter(w)
	// Each line is formatted into the writer's free buffer space and
	// written from there.
	line := func(nums ...uint64) {
		b := bw.AvailableBuffer()
		for i, x := range nums {
			if i > 0 {
				b = append(b, ' ')
			}
			b = strconv.AppendUint(b, x, 10)
		}
		bw.Write(append(b, '\n'))
	}
	symbol := func(kind byte, i int, name string) {
		b := strconv.AppendInt(append(bw.AvailableBuffer(), kind), int64(i), 10)
		b = append(append(b, ' '), name...)
		bw.Write(append(b, '\n'))
	}
	bw.WriteString("aag ")
	line(uint64(len(g.nodes)-1), uint64(len(g.inputs)), 0, uint64(len(g.outputs)), uint64(g.NumAnds()))
	for _, v := range g.inputs {
		line(uint64(MakeLit(v, false)))
	}
	for _, o := range g.outputs {
		line(uint64(o))
	}
	for v := 1; v < len(g.nodes); v++ {
		n := &g.nodes[v]
		if n.kind != kindAnd {
			continue
		}
		line(uint64(MakeLit(v, false)), uint64(n.fan1), uint64(n.fan0))
	}
	for i, name := range g.inNames {
		if name != "" {
			symbol('i', i, name)
		}
	}
	for i, name := range g.outNames {
		if name != "" {
			symbol('o', i, name)
		}
	}
	if g.Name != "" {
		bw.WriteString("c\n")
		bw.WriteString(g.Name)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// The most of the reader's variable map, output list and graph that the
// header alone may size.
const (
	maxDenseVars       = 1 << 20
	maxReservedOutputs = 1 << 16
	maxReservedInputs  = 1 << 16
	maxReservedAnds    = 1 << 18
)

// varMap maps the variables of the file being read to the graph's
// literals; a variable never defined reads as False. It never trusts
// the header's variable count: the dense part starts at most
// maxDenseVars long and grows only to variables within reach of the
// number defined so far, and any other variable — legal, but never
// written by WriteASCII — goes to a map. Its memory therefore follows
// the lines read, whatever the header or a literal claims.
type varMap struct {
	dense   []Lit
	sparse  map[int]Lit
	limit   int // the header's maxVar + 1
	defined int
}

func newVarMap(maxVar int) *varMap {
	return &varMap{dense: make([]Lit, min(maxVar+1, maxDenseVars)), limit: maxVar + 1}
}

// lit returns the graph literal of file literal n.
func (m *varMap) lit(n int) Lit {
	v := n >> 1
	l := m.sparse[v]
	if v < len(m.dense) {
		l = m.dense[v]
	}
	return l.NotIf(n&1 == 1)
}

func (m *varMap) set(v int, l Lit) {
	m.defined++
	if v >= len(m.dense) && v < 2*m.defined+maxDenseVars {
		d := make([]Lit, min(max(v+1, 2*len(m.dense)), m.limit))
		copy(d, m.dense)
		for u, x := range m.sparse {
			if u < len(d) {
				d[u] = x
				delete(m.sparse, u)
			}
		}
		m.dense = d
	}
	if v < len(m.dense) {
		m.dense[v] = l
		return
	}
	if m.sparse == nil {
		m.sparse = make(map[int]Lit)
	}
	m.sparse[v] = l
}

// isSpace reports whether c separates the fields of an AIGER line.
func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f'
}

// nextField returns the first whitespace-separated field of b and what
// follows it; the field is empty when b holds none.
func nextField(b []byte) (field, rest []byte) {
	i := 0
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	j := i
	for j < len(b) && !isSpace(b[j]) {
		j++
	}
	return b[i:j], b[j:]
}

// atoi parses an unsigned decimal of at most 18 digits.
func atoi(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	if n > math.MaxInt {
		return 0, false
	}
	return int(n), true
}

// ReadASCII parses an ASCII AIGER (aag) stream produced by WriteASCII or
// any conforming tool. Latch declarations are rejected. The returned
// graph is re-hashed, so structurally duplicate ANDs in the input are
// merged. The header's counts set the graph's reservation, up to fixed
// caps; beyond those, memory follows what is read.
func ReadASCII(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("aig: empty AIGER stream")
	}
	header := bytes.Fields(sc.Bytes())
	if len(header) != 6 || string(header[0]) != "aag" {
		return nil, fmt.Errorf("aig: bad AIGER header %q", sc.Bytes())
	}
	var nums [5]int
	for i, f := range header[1:] {
		n, ok := atoi(f)
		if !ok {
			return nil, fmt.Errorf("aig: bad AIGER header field %q", f)
		}
		nums[i] = n
	}
	maxVar, nIn, nLatch, nOut, nAnd := nums[0], nums[1], nums[2], nums[3], nums[4]
	if nLatch != 0 {
		return nil, fmt.Errorf("aig: latches are not supported (got %d)", nLatch)
	}
	if maxVar < nIn+nAnd {
		return nil, fmt.Errorf("aig: header claims %d vars for %d inputs + %d ands", maxVar, nIn, nAnd)
	}

	g := NewSized("", min(nIn, maxReservedInputs), min(nAnd, maxReservedAnds))
	old2new := newVarMap(maxVar)

	// readLit parses a file literal: 2*variable + complement bit.
	readLit := func(field []byte) (int, error) {
		n, ok := atoi(field)
		if !ok || n>>1 > maxVar {
			return 0, fmt.Errorf("aig: bad literal %q", field)
		}
		return n, nil
	}
	// nextLine returns the next line of the body, which the header says
	// is there.
	nextLine := func() ([]byte, error) {
		if sc.Scan() {
			return sc.Bytes(), nil
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, io.ErrUnexpectedEOF
	}
	// lineLit reads a line holding exactly one literal.
	lineLit := func() (int, error) {
		line, err := nextLine()
		if err != nil {
			return 0, err
		}
		f, rest := nextField(line)
		if extra, _ := nextField(rest); len(extra) > 0 {
			return 0, fmt.Errorf("aig: bad literal %q", bytes.TrimSpace(line))
		}
		return readLit(f)
	}

	for i := 0; i < nIn; i++ {
		n, err := lineLit()
		if err != nil {
			return nil, err
		}
		if n&1 == 1 {
			return nil, fmt.Errorf("aig: complemented input literal %d", n)
		}
		old2new.set(n>>1, g.AddInput(""))
	}
	// Output literals may refer forward, so they wait for the ANDs. The
	// list grows as lines are read; the header's count only hints.
	outLits := make([]int, 0, min(nOut, maxReservedOutputs))
	for i := 0; i < nOut; i++ {
		n, err := lineLit()
		if err != nil {
			return nil, err
		}
		outLits = append(outLits, n)
	}
	// AIGER requires fanins to be declared before use, so each AND line
	// is built the moment it is read: the only buffered state is the
	// output-literal list (forward references are legal there) and the
	// variable map itself. At million-gate scale this keeps the reader's
	// footprint at the graph being built, with no whole-file declaration
	// buffer alongside it.
	for i := 0; i < nAnd; i++ {
		line, err := nextLine()
		if err != nil {
			return nil, err
		}
		f0, rest := nextField(line)
		f1, rest := nextField(rest)
		f2, rest := nextField(rest)
		if extra, _ := nextField(rest); len(f2) == 0 || len(extra) > 0 {
			return nil, fmt.Errorf("aig: bad AND line %q", line)
		}
		lhs, err := readLit(f0)
		if err != nil {
			return nil, err
		}
		a, err := readLit(f1)
		if err != nil {
			return nil, err
		}
		b, err := readLit(f2)
		if err != nil {
			return nil, err
		}
		if lhs&1 == 1 {
			return nil, fmt.Errorf("aig: complemented AND lhs %d", lhs)
		}
		old2new.set(lhs>>1, g.And(old2new.lit(a), old2new.lit(b)))
	}
	g.reserveOutputs(len(outLits))
	for _, n := range outLits {
		g.AddOutput(old2new.lit(n), "")
	}

	// Optional symbol table and comment section.
	for sc.Scan() {
		line := sc.Text()
		if line == "c" {
			if sc.Scan() {
				g.Name = strings.TrimSpace(sc.Text())
			}
			break
		}
		if len(line) < 2 {
			continue
		}
		fields := strings.Fields(line[1:])
		if len(fields) == 0 {
			continue
		}
		idx, err := strconv.Atoi(fields[0])
		if err != nil || idx < 0 {
			continue
		}
		name := ""
		if sp := strings.IndexByte(line, ' '); sp >= 0 {
			// A name cannot end in a carriage return: the scanner drops
			// one at the end of a line, so it would not survive a
			// write and a read.
			name = strings.TrimRight(line[sp+1:], "\r")
		}
		switch {
		case line[0] == 'i' && idx < len(g.inNames):
			g.inNames[idx] = name
		case line[0] == 'o' && idx < len(g.outNames):
			g.outNames[idx] = name
		}
	}
	return g, sc.Err()
}
