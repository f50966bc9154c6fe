package aig

import (
	"bytes"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"testing/quick"
)

func TestLitBasics(t *testing.T) {
	l := MakeLit(5, false)
	if l.Var() != 5 || l.IsNeg() {
		t.Fatalf("MakeLit(5,false) = %v", l)
	}
	if n := l.Not(); n.Var() != 5 || !n.IsNeg() {
		t.Fatalf("Not() = %v", n)
	}
	if l.Not().Not() != l {
		t.Fatal("double negation is not identity")
	}
	if l.NotIf(false) != l || l.NotIf(true) != l.Not() {
		t.Fatal("NotIf misbehaves")
	}
	if False.Not() != True || True.Not() != False {
		t.Fatal("constant literals are not complements")
	}
}

func TestAndConstantFolding(t *testing.T) {
	g := New("fold")
	a := g.AddInput("a")
	cases := []struct {
		x, y, want Lit
		name       string
	}{
		{False, a, False, "0&a"},
		{a, False, False, "a&0"},
		{True, a, a, "1&a"},
		{a, True, a, "a&1"},
		{a, a, a, "a&a"},
		{a, a.Not(), False, "a&!a"},
		{a.Not(), a, False, "!a&a"},
	}
	for _, c := range cases {
		if got := g.And(c.x, c.y); got != c.want {
			t.Errorf("%s: got %v want %v", c.name, got, c.want)
		}
	}
	if g.NumAnds() != 0 {
		t.Fatalf("folding created %d AND nodes", g.NumAnds())
	}
}

func TestStructuralHashing(t *testing.T) {
	g := New("strash")
	a := g.AddInput("a")
	b := g.AddInput("b")
	x := g.And(a, b)
	y := g.And(b, a) // commuted
	if x != y {
		t.Fatal("strashing missed commuted AND")
	}
	z := g.And(a.Not(), b)
	if z == x {
		t.Fatal("distinct AND collapsed")
	}
	if g.NumAnds() != 2 {
		t.Fatalf("NumAnds = %d, want 2", g.NumAnds())
	}
}

func TestXorMuxTruthTables(t *testing.T) {
	g := New("tt")
	a := g.AddInput("a")
	b := g.AddInput("b")
	s := g.AddInput("s")
	g.AddOutput(g.Xor(a, b), "xor")
	g.AddOutput(g.Mux(s, a, b), "mux")
	g.AddOutput(g.Maj(a, b, s), "maj")

	sim := NewSimulator(g)
	// Exhaustive 8-row truth table packed into the low bits of the words.
	// Bit i of each word corresponds to assignment i = (a,b,s) bits.
	var wa, wb, ws uint64
	for i := 0; i < 8; i++ {
		if i&1 != 0 {
			wa |= 1 << i
		}
		if i&2 != 0 {
			wb |= 1 << i
		}
		if i&4 != 0 {
			ws |= 1 << i
		}
	}
	out := sim.Run([]uint64{wa, wb, ws})
	mask := uint64(0xff)
	if got, want := out[0]&mask, (wa^wb)&mask; got != want {
		t.Errorf("xor: got %08b want %08b", got, want)
	}
	if got, want := out[1]&mask, ((ws&wa)|(^ws&wb))&mask; got != want {
		t.Errorf("mux: got %08b want %08b", got, want)
	}
	if got, want := out[2]&mask, ((wa&wb)|(wa&ws)|(wb&ws))&mask; got != want {
		t.Errorf("maj: got %08b want %08b", got, want)
	}
}

func TestAndNOrNDepth(t *testing.T) {
	g := New("depth")
	var ls []Lit
	for i := 0; i < 64; i++ {
		ls = append(ls, g.AddInput(""))
	}
	g.AddOutput(g.AndN(ls), "and64")
	if d := g.Depth(); d != 6 {
		t.Fatalf("balanced AndN(64) depth = %d, want 6", d)
	}
	if g.AndN(nil) != True {
		t.Fatal("AndN(nil) != True")
	}
	if g.OrN(nil) != False {
		t.Fatal("OrN(nil) != False")
	}
	if g.AndN(ls[:1]) != ls[0] || g.OrN(ls[:1]) != ls[0] {
		t.Fatal("single-element reduction is not identity")
	}
}

func TestLevelsAndFanouts(t *testing.T) {
	g := New("lv")
	a := g.AddInput("a")
	b := g.AddInput("b")
	x := g.And(a, b)
	y := g.And(x, b.Not())
	g.AddOutput(y, "y")
	lv := g.Levels()
	if lv[a.Var()] != 0 || lv[x.Var()] != 1 || lv[y.Var()] != 2 {
		t.Fatalf("levels = %v", lv)
	}
	fo := g.FanoutCounts()
	if fo[b.Var()] != 2 {
		t.Fatalf("fanout(b) = %d, want 2", fo[b.Var()])
	}
	if fo[y.Var()] != 1 {
		t.Fatalf("fanout(y) = %d, want 1 (the output)", fo[y.Var()])
	}
	// An output added after the counts were read is counted next time.
	g.AddOutput(x, "x")
	if fo := g.FanoutCounts(); fo[x.Var()] != 2 {
		t.Fatalf("fanout(x) = %d after adding it as an output, want 2", fo[x.Var()])
	}
}

func TestSweepRemovesDanglingNodes(t *testing.T) {
	g := New("sweep")
	a := g.AddInput("a")
	b := g.AddInput("b")
	used := g.And(a, b)
	g.And(a.Not(), b.Not()) // dangling
	g.AddOutput(used, "f")
	if g.NumAnds() != 2 {
		t.Fatalf("precondition: NumAnds = %d", g.NumAnds())
	}
	sw, _ := g.Sweep()
	if sw.NumAnds() != 1 {
		t.Fatalf("after sweep NumAnds = %d, want 1", sw.NumAnds())
	}
	if sw.NumInputs() != 2 || sw.NumOutputs() != 1 {
		t.Fatalf("sweep changed I/O: %v", sw.Stats())
	}
	if !SimEquiv(g, sw, 1, 8) {
		t.Fatal("sweep changed function")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	g := New("orig")
	a := g.AddInput("a")
	b := g.AddInput("b")
	g.AddOutput(g.And(a, b), "f")
	c := g.Clone()
	c.AddOutput(g.Or(a, b), "g")
	if g.NumOutputs() != 1 {
		t.Fatal("clone mutation leaked into original outputs")
	}
	if !SimEquiv(g, g.Clone(), 7, 4) {
		t.Fatal("clone not equivalent to original")
	}
}

func buildAdder(t *testing.T, width int) *Graph {
	t.Helper()
	g := New("adder")
	as := make([]Lit, width)
	bs := make([]Lit, width)
	for i := 0; i < width; i++ {
		as[i] = g.AddInput("")
	}
	for i := 0; i < width; i++ {
		bs[i] = g.AddInput("")
	}
	carry := False
	for i := 0; i < width; i++ {
		sum := g.Xor(g.Xor(as[i], bs[i]), carry)
		carry = g.Maj(as[i], bs[i], carry)
		g.AddOutput(sum, "")
	}
	g.AddOutput(carry, "cout")
	return g
}

// buildRandom adds inputs primary inputs and ands AND requests to g,
// every third request repeating an earlier fanin pair so that strash
// dedupe is exercised, and returns the literal of every request.
func buildRandom(g *Graph, seed int64, inputs, ands int) []Lit {
	rng := rand.New(rand.NewSource(seed))
	lits := []Lit{True}
	for i := 0; i < inputs; i++ {
		lits = append(lits, g.AddInput("i"+strconv.Itoa(i)))
	}
	var pairs [][2]Lit
	var got []Lit
	for i := 0; i < ands; i++ {
		var p [2]Lit
		if i%3 == 2 && len(pairs) > 0 {
			p = pairs[rng.Intn(len(pairs))]
		} else {
			p = [2]Lit{
				lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0),
				lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0),
			}
			pairs = append(pairs, p)
		}
		l := g.And(p[0], p[1])
		got = append(got, l)
		lits = append(lits, l)
	}
	for i := 0; i < 3; i++ {
		g.AddOutput(lits[len(lits)-1-i].NotIf(i == 1), "o"+strconv.Itoa(i))
	}
	return got
}

// TestResetMatchesNewSized: a graph rebuilt after Reset must number its
// variables, dedupe its ANDs and fingerprint exactly as NewSized does on
// the same build sequence, whether the graph it recycles was larger or
// smaller than the new one. A stale strash slot would dedupe a pair the
// fresh graph creates; a stale memo would report the old levels.
func TestResetMatchesNewSized(t *testing.T) {
	for _, tc := range []struct {
		name                         string
		priorInputs, priorAnds       int
		inputs, ands, hintIn, hintAn int
	}{
		{"after a larger graph", 24, 3000, 6, 200, 6, 200},
		{"after a smaller graph", 3, 40, 16, 2500, 16, 2500},
		{"under a short hint", 10, 500, 12, 900, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := NewSized("prior", tc.priorInputs, tc.priorAnds)
			buildRandom(g, 1, tc.priorInputs, tc.priorAnds)
			g.Levels()
			g.FanoutCounts()
			g.Reset("next", tc.hintIn, tc.hintAn)
			if g.NumVars() != 1 || g.NumInputs() != 0 || g.NumOutputs() != 0 || g.Name != "next" {
				t.Fatalf("Reset left vars=%d inputs=%d outputs=%d name=%q", g.NumVars(), g.NumInputs(), g.NumOutputs(), g.Name)
			}
			if len(g.Levels()) != 1 || len(g.FanoutCounts()) != 1 {
				t.Fatalf("Reset kept the old graph's memos: %d levels, %d fanout counts", len(g.Levels()), len(g.FanoutCounts()))
			}
			got := buildRandom(g, 2, tc.inputs, tc.ands)

			fresh := NewSized("next", tc.hintIn, tc.hintAn)
			want := buildRandom(fresh, 2, tc.inputs, tc.ands)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("request %d: recycled graph returned %v, fresh %v", i, got[i], want[i])
				}
			}
			if g.Fingerprint() != fresh.Fingerprint() {
				t.Fatalf("fingerprint %x, fresh %x", g.Fingerprint(), fresh.Fingerprint())
			}
			if g.Depth() != fresh.Depth() || !slices.Equal(g.FanoutCounts(), fresh.FanoutCounts()) {
				t.Fatalf("depth %d, fresh %d (or fanout counts differ)", g.Depth(), fresh.Depth())
			}
			if g.NumAnds() >= tc.ands {
				t.Fatalf("%d ANDs for %d requests: nothing was deduped", g.NumAnds(), tc.ands)
			}
		})
	}
}

// TestRebuildWithinReservationAllocatesNothing: a graph Reset and
// rebuilt within its reservation reuses its node, port, hash-table and
// memo storage, so the rebuild allocates nothing; nor do graphs that
// take turns with one table's storage (SwapStrash), nor Append into a
// caller's variable map.
func TestRebuildWithinReservationAllocatesNothing(t *testing.T) {
	const inputs, ands = 12, 3000
	src := NewSized("src", inputs, ands)
	buildRandom(src, 5, inputs, ands)
	// rebuild replays src into g: the same inputs, ANDs and outputs.
	rebuild := func(g *Graph) {
		g.Reset("g", inputs, ands)
		for i := range inputs {
			g.AddInput(src.InputName(i))
		}
		src.TopoAnds(func(v int, f0, f1 Lit) { g.And(f0, f1) })
		for i := range src.NumOutputs() {
			g.AddOutput(src.Output(i), src.OutputName(i))
		}
		g.Levels()
		g.FanoutCounts()
	}
	g := NewSized("g", 0, 0)
	rebuild(g)
	if allocs := testing.AllocsPerRun(10, func() { rebuild(g) }); allocs != 0 {
		t.Errorf("a rebuild within the reservation allocated %.0f times", allocs)
	}
	if g.NumAnds() != src.NumAnds() || g.Depth() != src.Depth() {
		t.Fatalf("rebuilt %d ANDs at depth %d, want %d at %d", g.NumAnds(), g.Depth(), src.NumAnds(), src.Depth())
	}

	var table Graph // holds the shared storage between builds
	h1, h2 := NewSized("h1", 0, 0), NewSized("h2", 0, 0)
	turns := func() {
		h1.SwapStrash(&table)
		rebuild(h1)
		h1.SwapStrash(&table)
		h2.SwapStrash(&table)
		rebuild(h2)
		h2.SwapStrash(&table)
	}
	turns()
	if allocs := testing.AllocsPerRun(10, turns); allocs != 0 {
		t.Errorf("two graphs sharing one table allocated %.0f times", allocs)
	}

	dst := NewSized("dst", inputs, ands)
	inMap := make([]Lit, inputs)
	var m []Lit
	appendSrc := func() {
		dst.Reset("dst", inputs, ands)
		for i := range inMap {
			inMap[i] = dst.AddInput("")
		}
		m = dst.Append(src, inMap, m)
	}
	appendSrc()
	if allocs := testing.AllocsPerRun(10, appendSrc); allocs != 0 {
		t.Errorf("Append into the caller's map allocated %.0f times", allocs)
	}
	if dst.NumAnds() != src.NumAnds() || m[src.Output(0).Var()] != src.Output(0)&^1 {
		t.Fatalf("Append made %d ANDs, mapped output 0 to %v", dst.NumAnds(), m[src.Output(0).Var()])
	}
}

// TestSweepNeverReturnsReceiver: synthesis sweeps its recycled pass
// graphs and keeps the result, so Sweep must return a graph of its own
// even when nothing is dead, and emptying the receiver afterwards must
// leave the result untouched.
func TestSweepNeverReturnsReceiver(t *testing.T) {
	g := New("live")
	a, b := g.AddInput("a"), g.AddInput("b")
	g.AddOutput(g.Xor(a, b), "y")
	swept, _ := g.Sweep()
	if swept == g {
		t.Fatal("Sweep returned its receiver")
	}
	if swept.NumAnds() != g.NumAnds() {
		t.Fatalf("sweep of a graph with no dead nodes changed its size: %d -> %d", g.NumAnds(), swept.NumAnds())
	}
	fp := swept.Fingerprint()
	g.Reset("other", 0, 0)
	buildRandom(g, 3, 5, 100)
	if swept.Fingerprint() != fp {
		t.Fatal("the swept graph shares storage with its receiver")
	}
}

// TestSweepIntoMatchesSweep: sweeping into a recycled graph and map —
// left over from a larger or a smaller sweep — gives Sweep's graph and
// variable map, and sweeping into the receiver is refused.
func TestSweepIntoMatchesSweep(t *testing.T) {
	dst, buf := New("stale"), []Lit(nil)
	for i, sz := range []int{400, 60, 900} {
		g := New("src")
		buildRandom(g, int64(i), 8, sz)
		for j := 0; j < 5; j++ {
			g.AddInput("late") // an input after the ANDs, and dangling
		}
		want, wantMap := g.Sweep()
		got, gotMap := g.SweepInto(dst, buf)
		if got != dst {
			t.Fatal("SweepInto did not build in its destination")
		}
		if got.Fingerprint() != want.Fingerprint() || got.Name != want.Name || !slices.Equal(gotMap, wantMap) {
			t.Fatalf("sweep %d: recycled result differs from Sweep's", i)
		}
		if want.NumAnds() >= g.NumAnds() {
			t.Fatalf("sweep %d: nothing was dead (%d ANDs)", i, g.NumAnds())
		}
		kept := 0
		for v, r := range reachable(g) {
			if g.IsAnd(v) && r {
				kept++
			}
			if g.IsAnd(v) && r == (wantMap[v] == False) {
				t.Fatalf("sweep %d: AND %d reachable %v but mapped to %v", i, v, r, wantMap[v])
			}
		}
		if kept != want.NumAnds() {
			t.Fatalf("sweep %d: kept %d ANDs, %d reachable", i, want.NumAnds(), kept)
		}
		buf = gotMap
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SweepInto its own receiver did not panic")
		}
	}()
	dst.SweepInto(dst, nil)
}

func TestAdderFunctional(t *testing.T) {
	const width = 8
	g := buildAdder(t, width)
	sim := NewSimulator(g)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		a := rng.Intn(1 << width)
		b := rng.Intn(1 << width)
		in := make([]uint64, 2*width)
		for i := 0; i < width; i++ {
			if a>>i&1 == 1 {
				in[i] = ^uint64(0)
			}
			if b>>i&1 == 1 {
				in[width+i] = ^uint64(0)
			}
		}
		out := sim.Run(in)
		got := 0
		for i := 0; i <= width; i++ {
			if out[i]&1 == 1 {
				got |= 1 << i
			}
		}
		if got != a+b {
			t.Fatalf("adder(%d,%d) = %d, want %d", a, b, got, a+b)
		}
	}
}

func TestAigerRoundTrip(t *testing.T) {
	g := buildAdder(t, 6)
	g.Name = "adder6"
	var buf bytes.Buffer
	if err := g.WriteASCII(&buf); err != nil {
		t.Fatalf("WriteASCII: %v", err)
	}
	h, err := ReadASCII(&buf)
	if err != nil {
		t.Fatalf("ReadASCII: %v", err)
	}
	if h.Name != "adder6" {
		t.Errorf("name lost: %q", h.Name)
	}
	if h.NumInputs() != g.NumInputs() || h.NumOutputs() != g.NumOutputs() {
		t.Fatalf("I/O mismatch after round trip: %v vs %v", h.Stats(), g.Stats())
	}
	if !SimEquiv(g, h, 99, 16) {
		t.Fatal("round trip changed function")
	}
}

func TestAigerRejectsBadInput(t *testing.T) {
	cases := []string{
		"",
		"aig 1 1 0 0 0\n2\n",         // binary header keyword
		"aag 1 1 9 0 0\n2\n",         // latches
		"aag 0 1 0 0 0\n2\n",         // header var count too small
		"aag 2 1 0 1 1\n2\n",         // truncated
		"aag 2 1 0 0 1\n2\n5 2 2\n",  // complemented AND lhs
		"aag 2 1 0 0 0\n3\n",         // complemented input
		"aag x 1 0 0 0\n2\n",         // non-numeric header
		"aag 2 1 0 1 1\n2\n4\nx y\n", // bad AND line
	}
	for i, src := range cases {
		if _, err := ReadASCII(bytes.NewReader([]byte(src))); err == nil {
			t.Errorf("case %d: expected error for %q", i, src)
		}
	}
}

func TestSimEquivDetectsDifference(t *testing.T) {
	g := New("and")
	a := g.AddInput("a")
	b := g.AddInput("b")
	g.AddOutput(g.And(a, b), "f")

	h := New("or")
	a2 := h.AddInput("a")
	b2 := h.AddInput("b")
	h.AddOutput(h.Or(a2, b2), "f")

	if SimEquiv(g, h, 3, 4) {
		t.Fatal("AND and OR reported equivalent")
	}
	if !SimEquiv(g, g, 3, 4) {
		t.Fatal("graph not equivalent to itself")
	}
	one := New("one")
	one.AddInput("a")
	if SimEquiv(g, one, 3, 4) {
		t.Fatal("graphs with different I/O reported equivalent")
	}
}

// Property: DeMorgan — !(a & b) == !a | !b for random 64-pattern words.
func TestQuickDeMorgan(t *testing.T) {
	f := func(wa, wb uint64) bool {
		g := New("dm")
		a := g.AddInput("a")
		b := g.AddInput("b")
		g.AddOutput(g.And(a, b).Not(), "nand")
		g.AddOutput(g.Or(a.Not(), b.Not()), "demorgan")
		out := NewSimulator(g).Run([]uint64{wa, wb})
		return out[0] == out[1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Xor is associative under simulation.
func TestQuickXorAssociative(t *testing.T) {
	f := func(wa, wb, wc uint64) bool {
		g := New("assoc")
		a := g.AddInput("a")
		b := g.AddInput("b")
		c := g.AddInput("c")
		g.AddOutput(g.Xor(g.Xor(a, b), c), "l")
		g.AddOutput(g.Xor(a, g.Xor(b, c)), "r")
		out := NewSimulator(g).Run([]uint64{wa, wb, wc})
		return out[0] == out[1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Sweep preserves the function of randomly built graphs.
func TestQuickSweepPreservesFunction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New("rand")
		lits := []Lit{}
		for i := 0; i < 6; i++ {
			lits = append(lits, g.AddInput(""))
		}
		for i := 0; i < 40; i++ {
			a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
			b := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
			lits = append(lits, g.And(a, b))
		}
		// Output only a few nodes so some become dangling.
		for i := 0; i < 3; i++ {
			g.AddOutput(lits[rng.Intn(len(lits))], "")
		}
		sw, _ := g.Sweep()
		return SimEquiv(g, sw, seed^0x5a5a, 8) && sw.NumAnds() <= g.NumAnds()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFaninsPanicsOnNonAnd(t *testing.T) {
	g := New("panic")
	a := g.AddInput("a")
	defer func() {
		if recover() == nil {
			t.Fatal("Fanins on input did not panic")
		}
	}()
	g.Fanins(a.Var())
}

func TestStatsString(t *testing.T) {
	g := buildAdder(t, 4)
	s := g.Stats()
	if s.Inputs != 8 || s.Outputs != 5 {
		t.Fatalf("stats = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty stats string")
	}
}
