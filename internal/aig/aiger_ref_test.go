package aig_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"edacloud/internal/aig"
	"edacloud/internal/designs"
)

// refWriteASCII is Graph.WriteASCII the way it was before it formatted
// on bytes: one fmt.Fprintf per line. It reads the graph through the
// public API only and shares no code with the writer under test.
func refWriteASCII(g *aig.Graph, w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "aag %d %d 0 %d %d\n", g.NumVars()-1, g.NumInputs(), g.NumOutputs(), g.NumAnds())
	for _, v := range g.InputVars() {
		fmt.Fprintf(bw, "%d\n", aig.MakeLit(v, false))
	}
	for _, o := range g.Outputs() {
		fmt.Fprintf(bw, "%d\n", o)
	}
	for v := 1; v < g.NumVars(); v++ {
		if !g.IsAnd(v) {
			continue
		}
		f0, f1 := g.Fanins(v)
		fmt.Fprintf(bw, "%d %d %d\n", aig.MakeLit(v, false), f1, f0)
	}
	for i := 0; i < g.NumInputs(); i++ {
		if name := g.InputName(i); name != "" {
			fmt.Fprintf(bw, "i%d %s\n", i, name)
		}
	}
	for i := 0; i < g.NumOutputs(); i++ {
		if name := g.OutputName(i); name != "" {
			fmt.Fprintf(bw, "o%d %s\n", i, name)
		}
	}
	if g.Name != "" {
		fmt.Fprintf(bw, "c\n%s\n", g.Name)
	}
	return bw.Flush()
}

// refReadASCII is ReadASCII the way it was before it parsed on bytes:
// sc.Text, strings.Fields and strconv.Atoi per line, and a variable map
// sized from the header. It is only ever fed well-formed files.
func refReadASCII(r io.Reader) (*aig.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("aig: empty AIGER stream")
	}
	header := strings.Fields(sc.Text())
	if len(header) != 6 || header[0] != "aag" {
		return nil, fmt.Errorf("aig: bad AIGER header %q", sc.Text())
	}
	nums := make([]int, 5)
	for i, f := range header[1:] {
		n, err := strconv.Atoi(f)
		if err != nil || n < 0 {
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

	g := aig.New("")
	old2new := make([]aig.Lit, maxVar+1)
	old2new[0] = aig.False
	readLit := func(field string) (aig.Lit, error) {
		n, err := strconv.Atoi(field)
		if err != nil || n < 0 || n>>1 > maxVar {
			return 0, fmt.Errorf("aig: bad literal %q", field)
		}
		return aig.Lit(n), nil
	}
	nextLine := func() (string, error) {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return "", err
			}
			return "", io.ErrUnexpectedEOF
		}
		return sc.Text(), nil
	}
	for i := 0; i < nIn; i++ {
		line, err := nextLine()
		if err != nil {
			return nil, err
		}
		l, err := readLit(strings.TrimSpace(line))
		if err != nil {
			return nil, err
		}
		if l.IsNeg() {
			return nil, fmt.Errorf("aig: complemented input literal %d", l)
		}
		old2new[l.Var()] = g.AddInput("")
	}
	outLits := make([]aig.Lit, nOut)
	for i := 0; i < nOut; i++ {
		line, err := nextLine()
		if err != nil {
			return nil, err
		}
		l, err := readLit(strings.TrimSpace(line))
		if err != nil {
			return nil, err
		}
		outLits[i] = l
	}
	for i := 0; i < nAnd; i++ {
		line, err := nextLine()
		if err != nil {
			return nil, err
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("aig: bad AND line %q", line)
		}
		var lits [3]aig.Lit
		for j, f := range fields {
			l, err := readLit(f)
			if err != nil {
				return nil, err
			}
			lits[j] = l
		}
		if lits[0].IsNeg() {
			return nil, fmt.Errorf("aig: complemented AND lhs %d", lits[0])
		}
		f0 := old2new[lits[1].Var()]
		f1 := old2new[lits[2].Var()]
		old2new[lits[0].Var()] = g.And(f0.NotIf(lits[1].IsNeg()), f1.NotIf(lits[2].IsNeg()))
	}
	for _, l := range outLits {
		g.AddOutput(old2new[l.Var()].NotIf(l.IsNeg()), "")
	}
	// The symbol table is written back through the public API, so the
	// names are gathered first.
	inNames := make([]string, g.NumInputs())
	outNames := make([]string, g.NumOutputs())
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
		idx, err := strconv.Atoi(strings.Fields(line[1:])[0])
		if err != nil {
			continue
		}
		name := ""
		if sp := strings.IndexByte(line, ' '); sp >= 0 {
			name = line[sp+1:]
		}
		switch {
		case line[0] == 'i' && idx < len(inNames):
			inNames[idx] = name
		case line[0] == 'o' && idx < len(outNames):
			outNames[idx] = name
		}
	}
	return withNames(g, inNames, outNames), sc.Err()
}

// withNames rebuilds g with the given port names, through the public
// API: a copy variable for variable, so the layout is g's.
func withNames(g *aig.Graph, inNames, outNames []string) *aig.Graph {
	h := aig.New(g.Name)
	lits := make([]aig.Lit, g.NumVars())
	for i, v := range g.InputVars() {
		lits[v] = h.AddInput(inNames[i])
	}
	for v := 1; v < g.NumVars(); v++ {
		if g.IsAnd(v) {
			f0, f1 := g.Fanins(v)
			lits[v] = h.And(lits[f0.Var()].NotIf(f0.IsNeg()), lits[f1.Var()].NotIf(f1.IsNeg()))
		}
	}
	for i, o := range g.Outputs() {
		h.AddOutput(lits[o.Var()].NotIf(o.IsNeg()), outNames[i])
	}
	return h
}

// namedRandGraph is a seeded random graph with every port named, some
// names empty and some holding spaces, and a design name.
func namedRandGraph(seed int64) *aig.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := aig.New(fmt.Sprintf("rand %d", seed))
	name := func(kind string, i int) string {
		switch rng.Intn(4) {
		case 0:
			return ""
		case 1:
			return fmt.Sprintf("%s[%d] bus", kind, i)
		}
		return fmt.Sprintf("%s%d", kind, i)
	}
	inputs, ands, outputs := 1+rng.Intn(40), rng.Intn(600), rng.Intn(30)
	lits := make([]aig.Lit, 0, inputs+ands)
	for i := 0; i < inputs; i++ {
		lits = append(lits, g.AddInput(name("in", i)))
	}
	for i := 0; i < ands; i++ {
		a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		b := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		lits = append(lits, g.And(a, b))
	}
	for i := 0; i < outputs; i++ {
		l := aig.Lit(rng.Intn(2))
		if rng.Intn(8) != 0 {
			l = lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		}
		g.AddOutput(l, name("out", i))
	}
	return g
}

// sameGraph reports the first difference between two graphs: layout,
// ports, names and every AND's fanins.
func sameGraph(a, b *aig.Graph) string {
	if a.Name != b.Name {
		return fmt.Sprintf("name %q vs %q", a.Name, b.Name)
	}
	if a.NumVars() != b.NumVars() || a.NumInputs() != b.NumInputs() || a.NumOutputs() != b.NumOutputs() {
		return fmt.Sprintf("shape %v vs %v", a.Stats(), b.Stats())
	}
	for i := 0; i < a.NumInputs(); i++ {
		if a.Input(i) != b.Input(i) || a.InputName(i) != b.InputName(i) {
			return fmt.Sprintf("input %d: %v %q vs %v %q", i, a.Input(i), a.InputName(i), b.Input(i), b.InputName(i))
		}
	}
	for i := 0; i < a.NumOutputs(); i++ {
		if a.Output(i) != b.Output(i) || a.OutputName(i) != b.OutputName(i) {
			return fmt.Sprintf("output %d: %v %q vs %v %q", i, a.Output(i), a.OutputName(i), b.Output(i), b.OutputName(i))
		}
	}
	for v := 1; v < a.NumVars(); v++ {
		if a.IsAnd(v) != b.IsAnd(v) {
			return fmt.Sprintf("var %d: kind differs", v)
		}
		if a.IsAnd(v) {
			a0, a1 := a.Fanins(v)
			b0, b1 := b.Fanins(v)
			if a0 != b0 || a1 != b1 {
				return fmt.Sprintf("var %d: fanins %v,%v vs %v,%v", v, a0, a1, b0, b1)
			}
		}
	}
	if a.Fingerprint() != b.Fingerprint() {
		return "fingerprint differs"
	}
	return ""
}

// checkAgainstReference writes g with both writers and reads the text
// with both readers: the bytes must be identical and so must the graphs.
func checkAgainstReference(t *testing.T, label string, g *aig.Graph) {
	t.Helper()
	var got, want bytes.Buffer
	if err := g.WriteASCII(&got); err != nil {
		t.Fatalf("%s: WriteASCII: %v", label, err)
	}
	if err := refWriteASCII(g, &want); err != nil {
		t.Fatalf("%s: refWriteASCII: %v", label, err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%s: writers differ:\n%s\nvs reference\n%s", label, got.String(), want.String())
	}
	h, err := aig.ReadASCII(bytes.NewReader(want.Bytes()))
	if err != nil {
		t.Fatalf("%s: ReadASCII: %v", label, err)
	}
	ref, err := refReadASCII(bytes.NewReader(want.Bytes()))
	if err != nil {
		t.Fatalf("%s: refReadASCII: %v", label, err)
	}
	if d := sameGraph(h, ref); d != "" {
		t.Fatalf("%s: readers differ: %s", label, d)
	}
	if d := sameGraph(h, g); d != "" {
		t.Fatalf("%s: round trip differs: %s", label, d)
	}
}

// TestAigerMatchesReference: over seeded random graphs and every
// benchmark at small scale, the byte-level writer and reader produce
// exactly the reference's text and graphs, names included.
func TestAigerMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		checkAgainstReference(t, fmt.Sprintf("seed %d", seed), namedRandGraph(seed))
	}
	for _, name := range designs.BenchmarkNames() {
		checkAgainstReference(t, name, designs.MustBenchmark(name, 0.05))
	}
}

// TestReadASCIIMatchesReferenceOnHandWritten: files no writer produces —
// variable gaps, fanins in either order, CRLF line ends, tabs, padded
// literals, forward output references and a symbol table out of order —
// read to the reference's graph.
func TestReadASCIIMatchesReferenceOnHandWritten(t *testing.T) {
	files := []string{
		"aag 9 2 0 2 2\n4\n8\n19\n10\n18 4 8\n10 9 5\ni1 b\ni0 a\no1 y\no0 x\nc\n  padded name \n",
		"aag 3 2 0 1 1\r\n2\r\n4\r\n6\r\n6 2 5\r\ni0 a b\r\n",
		"aag 3 2 0 1 1\n\t2\n 4 \n7\n6\t2  4\n",
		"aag 5 2 0 3 1\n2\n4\n1\n0\n11\n6 2 4\nl0 ignored\nx\ni9 out of range\n",
	}
	for i, src := range files {
		h, err := aig.ReadASCII(strings.NewReader(src))
		if err != nil {
			t.Fatalf("file %d: ReadASCII: %v", i, err)
		}
		ref, err := refReadASCII(strings.NewReader(src))
		if err != nil {
			t.Fatalf("file %d: refReadASCII: %v", i, err)
		}
		if d := sameGraph(h, ref); d != "" {
			t.Fatalf("file %d: %s", i, d)
		}
	}
}
