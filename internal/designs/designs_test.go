package designs

import (
	"math"
	"strings"
	"testing"

	"edacloud/internal/aig"
)

// simWords packs integer operands into 64-bit simulation words where
// every pattern lane carries the same value.
func broadcast(value uint64, width int) []uint64 {
	in := make([]uint64, width)
	for i := 0; i < width; i++ {
		if value>>uint(i)&1 == 1 {
			in[i] = ^uint64(0)
		}
	}
	return in
}

func wordValue(out []uint64, lo, n int) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		if out[lo+i]&1 == 1 {
			v |= 1 << uint(i)
		}
	}
	return v
}

func TestBenchmarkNamesCount(t *testing.T) {
	names := BenchmarkNames()
	if len(names) != 18 {
		t.Fatalf("got %d benchmarks, want 18 (paper dataset)", len(names))
	}
}

func TestBenchmarkErrors(t *testing.T) {
	if _, err := Benchmark("nope", 1); err == nil {
		t.Fatal("unknown name accepted")
	}
	if _, err := Benchmark("adder", 0); err == nil {
		t.Fatal("zero scale accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustBenchmark did not panic")
		}
	}()
	MustBenchmark("nope", 1)
}

func TestAllBenchmarksGenerate(t *testing.T) {
	for _, name := range BenchmarkNames() {
		g, err := Benchmark(name, 0.15)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st := g.Stats()
		if st.Ands == 0 {
			t.Errorf("%s: empty graph", name)
		}
		if st.Outputs == 0 || st.Inputs == 0 {
			t.Errorf("%s: missing I/O: %v", name, st)
		}
		if g.Name != name {
			t.Errorf("%s: graph named %q", name, g.Name)
		}
	}
}

func TestBenchmarksDeterministic(t *testing.T) {
	for _, name := range []string{"adder", "cavlc", "mem_ctrl", "voter"} {
		a := MustBenchmark(name, 0.3)
		b := MustBenchmark(name, 0.3)
		if a.NumAnds() != b.NumAnds() || a.NumInputs() != b.NumInputs() {
			t.Errorf("%s: non-deterministic generation", name)
		}
		if !aig.SimEquiv(a, b, 5, 8) {
			t.Errorf("%s: regenerated graph differs functionally", name)
		}
	}
}

func TestScaleGrowsBenchmarks(t *testing.T) {
	for _, name := range []string{"adder", "multiplier", "arbiter", "voter", "mem_ctrl"} {
		small := MustBenchmark(name, 0.1)
		large := MustBenchmark(name, 0.6)
		if large.NumAnds() <= small.NumAnds() {
			t.Errorf("%s: scale 0.6 (%d ands) not larger than 0.1 (%d ands)",
				name, large.NumAnds(), small.NumAnds())
		}
	}
}

func TestAdderComputesSum(t *testing.T) {
	g := MustBenchmark("adder", 0.0625) // 8-bit
	w := g.NumInputs() / 2
	sim := aig.NewSimulator(g)
	for _, c := range [][2]uint64{{3, 5}, {255, 1}, {100, 155}, {0, 0}, {170, 85}} {
		in := append(broadcast(c[0], w), broadcast(c[1], w)...)
		out := sim.Run(in)
		got := wordValue(out, 0, w+1)
		want := (c[0] + c[1]) & (1<<uint(w+1) - 1)
		if got != want {
			t.Fatalf("adder(%d,%d) = %d, want %d", c[0], c[1], got, want)
		}
	}
}

func TestMultiplierComputesProduct(t *testing.T) {
	g := MustBenchmark("multiplier", 0.0625) // 4-bit
	w := g.NumInputs() / 2
	sim := aig.NewSimulator(g)
	for a := uint64(0); a < 1<<uint(w); a += 3 {
		for b := uint64(0); b < 1<<uint(w); b += 5 {
			in := append(broadcast(a, w), broadcast(b, w)...)
			out := sim.Run(in)
			if got := wordValue(out, 0, 2*w); got != a*b {
				t.Fatalf("mul(%d,%d) = %d, want %d", a, b, got, a*b)
			}
		}
	}
}

func TestSquareMatchesMultiplier(t *testing.T) {
	g := MustBenchmark("square", 0.0625)
	w := g.NumInputs()
	sim := aig.NewSimulator(g)
	for x := uint64(0); x < 1<<uint(w); x++ {
		out := sim.Run(broadcast(x, w))
		if got := wordValue(out, 0, 2*w); got != x*x {
			t.Fatalf("square(%d) = %d, want %d", x, got, x*x)
		}
	}
}

func TestDivComputesQuotientRemainder(t *testing.T) {
	g := MustBenchmark("div", 0.125) // w=4: 8-bit dividend, 4-bit divisor
	// inputs: n (2w bits) then d (w bits)
	w := g.NumInputs() / 3
	sim := aig.NewSimulator(g)
	for _, c := range [][2]uint64{{200, 7}, {255, 16 - 1}, {13, 3}, {9, 1}, {5, 9}} {
		n, d := c[0]&(1<<uint(2*w)-1), c[1]&(1<<uint(w)-1)
		if d == 0 {
			continue
		}
		in := append(broadcast(n, 2*w), broadcast(d, w)...)
		out := sim.Run(in)
		q := wordValue(out, 0, 2*w)
		r := wordValue(out, 2*w, w)
		if q != n/d || r != n%d {
			t.Fatalf("div(%d,%d) = q%d r%d, want q%d r%d", n, d, q, r, n/d, n%d)
		}
	}
}

func TestSqrtComputesRoot(t *testing.T) {
	g := MustBenchmark("sqrt", 0.094) // w=6
	w := g.NumInputs()
	sim := aig.NewSimulator(g)
	for x := uint64(0); x < 1<<uint(w); x++ {
		out := sim.Run(broadcast(x, w))
		got := wordValue(out, 0, (w+1)/2)
		want := isqrt(x)
		if got != want {
			t.Fatalf("sqrt(%d) = %d, want %d", x, got, want)
		}
	}
}

func isqrt(x uint64) uint64 {
	var r uint64
	for r*r <= x {
		r++
	}
	return r - 1
}

func TestMaxPicksMaximum(t *testing.T) {
	g := MustBenchmark("max", 0.0625) // 8-bit, 4 ways
	w := g.NumInputs() / 4
	sim := aig.NewSimulator(g)
	vals := []uint64{17, 250, 3, 99}
	var in []uint64
	for _, v := range vals {
		in = append(in, broadcast(v, w)...)
	}
	out := sim.Run(in)
	if got := wordValue(out, 0, w); got != 250 {
		t.Fatalf("max = %d, want 250", got)
	}
}

func TestBarShifts(t *testing.T) {
	g := MustBenchmark("bar", 0.0625) // 8-bit
	// inputs: d (w), sh (log w), left
	w := 8
	shBits := 3
	sim := aig.NewSimulator(g)
	run := func(d, sh uint64, left bool) uint64 {
		in := append(broadcast(d, w), broadcast(sh, shBits)...)
		if left {
			in = append(in, ^uint64(0))
		} else {
			in = append(in, 0)
		}
		out := sim.Run(in)
		return wordValue(out, 0, w)
	}
	if got := run(0b0000_0101, 2, true); got != 0b0001_0100 {
		t.Fatalf("left shift got %08b", got)
	}
	if got := run(0b1010_0000, 3, false); got != 0b0001_0100 {
		t.Fatalf("right shift got %08b", got)
	}
	if got := run(0xAB, 0, true); got != 0xAB {
		t.Fatalf("zero shift got %x", got)
	}
}

func TestDecoderOneHot(t *testing.T) {
	g := MustBenchmark("dec", 0.375) // 3-bit
	bits := 3
	sim := aig.NewSimulator(g)
	for v := uint64(0); v < 8; v++ {
		in := append(broadcast(v, bits), ^uint64(0)) // en=1
		out := sim.Run(in)
		for i := 0; i < 8; i++ {
			want := uint64(0)
			if uint64(i) == v {
				want = 1
			}
			if out[i]&1 != want {
				t.Fatalf("dec(%d): output %d = %d", v, i, out[i]&1)
			}
		}
		// Disabled: all zero.
		in[bits] = 0
		out = sim.Run(in)
		for i := 0; i < 8; i++ {
			if out[i]&1 != 0 {
				t.Fatalf("dec disabled: output %d set", i)
			}
		}
	}
}

func TestPriorityGrantsLowest(t *testing.T) {
	g := MustBenchmark("priority", 0.0625) // 8 requests
	n := 8
	sim := aig.NewSimulator(g)
	in := broadcast(0b0010_0100, n) // requests at 2 and 5
	out := sim.Run(in)
	for i := 0; i < n; i++ {
		want := uint64(0)
		if i == 2 {
			want = 1
		}
		if out[i]&1 != want {
			t.Fatalf("grant[%d] = %d", i, out[i]&1)
		}
	}
	// idx output should encode 2; valid should be 1.
	bits := 3
	if got := wordValue(out, n, bits); got != 2 {
		t.Fatalf("idx = %d", got)
	}
	if out[n+bits]&1 != 1 {
		t.Fatal("valid flag clear")
	}
}

func TestVoterMajority(t *testing.T) {
	g := MustBenchmark("voter", 0.009) // 9 inputs
	n := g.NumInputs()
	sim := aig.NewSimulator(g)
	// 5 of 9 set -> majority.
	out := sim.Run(broadcast(0b1_1111_0000>>0, n))
	if out[0]&1 != 1 {
		t.Fatal("majority not detected")
	}
	out = sim.Run(broadcast(0b0_0011_0001, n))
	if out[0]&1 != 0 {
		t.Fatal("minority reported as majority")
	}
	out = sim.Run(broadcast(0, n))
	if out[0]&1 != 0 {
		t.Fatal("empty vote reported as majority")
	}
}

func TestArbiterGrantsOne(t *testing.T) {
	g := MustBenchmark("arbiter", 0.03125) // 8 requests
	n := 8
	ptrBits := 3
	sim := aig.NewSimulator(g)
	run := func(req, ptr uint64) uint64 {
		in := append(broadcast(req, n), broadcast(ptr, ptrBits)...)
		out := sim.Run(in)
		return wordValue(out, 0, n)
	}
	// Requests at 1 and 6, pointer at 4: round-robin grants 6.
	if got := run(0b0100_0010, 4); got != 0b0100_0000 {
		t.Fatalf("rr grant = %08b, want request 6", got)
	}
	// Pointer at 0 grants the lowest requester.
	if got := run(0b0100_0010, 0); got != 0b0000_0010 {
		t.Fatalf("grant = %08b, want request 1", got)
	}
	// Wrap: pointer past all requests falls back to lowest.
	if got := run(0b0000_0010, 7); got != 0b0000_0010 {
		t.Fatalf("wrap grant = %08b", got)
	}
	if got := run(0, 3); got != 0 {
		t.Fatalf("no-request grant = %08b", got)
	}
}

func TestInt2FloatNormalizes(t *testing.T) {
	g := MustBenchmark("int2float", 0.25) // 8-bit
	w := 8
	sim := aig.NewSimulator(g)
	out := sim.Run(broadcast(0, w))
	zeroFlagIdx := g.NumOutputs() - 1
	if out[zeroFlagIdx]&1 != 1 {
		t.Fatal("zero input not flagged")
	}
	out = sim.Run(broadcast(1<<7, w))
	if out[zeroFlagIdx]&1 != 0 {
		t.Fatal("non-zero flagged as zero")
	}
}

func TestEvalDesignNamesAndOrdering(t *testing.T) {
	names := EvalDesignNames()
	want := []string{"dyn_node", "aes", "ibex", "jpeg", "swerv", "ariane", "coyote", "sparc_core"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names[%d] = %s, want %s", i, names[i], want[i])
		}
	}
	prev := 0
	for _, name := range names {
		spec, err := EvalInfo(name)
		if err != nil {
			t.Fatal(err)
		}
		if spec.TargetInstances <= prev {
			t.Fatal("eval specs not size-ordered")
		}
		prev = spec.TargetInstances
	}
	if _, err := EvalInfo("nope"); err == nil {
		t.Fatal("unknown eval design accepted")
	}
	if _, err := EvalDesign("dyn_node", -1); err == nil {
		t.Fatal("negative scale accepted")
	}
}

// TestBadScalesRefused: a scale that is not finite, not positive or
// above MaxScale is refused by both builders, and an evaluation design
// refuses a scale that would carry one of its blocks out of range
// instead of panicking in MustBenchmark.
func TestBadScalesRefused(t *testing.T) {
	for _, scale := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1), MaxScale * 1.01, 1e9} {
		if _, err := Benchmark("adder", scale); err == nil {
			t.Errorf("Benchmark accepted scale %g", scale)
		}
		if _, err := EvalDesign("dyn_node", scale); err == nil {
			t.Errorf("EvalDesign accepted scale %g", scale)
		}
	}
	for _, tc := range []struct {
		design string
		scale  float64
	}{
		{"sparc_core", 300},                       // its i2c blocks build at 4x: 1200
		{"dyn_node", math.SmallestNonzeroFloat64}, // its arbiter blocks build at 0.12x: 0
	} {
		if _, err := EvalDesign(tc.design, tc.scale); err == nil || !strings.Contains(err.Error(), "blocks") {
			t.Errorf("EvalDesign(%s, %g) = %v, want a refusal naming the block", tc.design, tc.scale, err)
		}
	}
	if err := CheckScale(MaxScale); err != nil {
		t.Errorf("MaxScale refused: %v", err)
	}
}

func TestEvalDesignSizesOrdered(t *testing.T) {
	const scale = 0.02
	var prev int
	for _, name := range EvalDesignNames() {
		g := MustEvalDesign(name, scale)
		ands := g.NumAnds()
		if ands <= 0 {
			t.Fatalf("%s: empty design", name)
		}
		if ands <= prev/2 {
			t.Errorf("%s (%d ands) much smaller than predecessor (%d)", name, ands, prev)
		}
		prev = ands
	}
	// The largest must dwarf the smallest (paper: few hundred vs 200k).
	small := MustEvalDesign("dyn_node", scale).NumAnds()
	big := MustEvalDesign("sparc_core", scale).NumAnds()
	if big < 10*small {
		t.Errorf("sparc_core (%d) not >= 10x dyn_node (%d)", big, small)
	}
}

func TestEvalDesignDeterministic(t *testing.T) {
	a := MustEvalDesign("aes", 0.05)
	b := MustEvalDesign("aes", 0.05)
	if a.NumAnds() != b.NumAnds() {
		t.Fatal("eval design generation not deterministic")
	}
	if !aig.SimEquiv(a, b, 11, 4) {
		t.Fatal("regenerated eval design differs functionally")
	}
}

func TestMustEvalDesignPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustEvalDesign did not panic")
		}
	}()
	MustEvalDesign("nope", 1)
}

// TestAdderX100Size: adder at 100×, the smallest million-gate size and
// synth-large's largest input, realizes about 141 k ANDs and enough
// output cones for design-level parallelism.
func TestAdderX100Size(t *testing.T) {
	g := MustBenchmark("adder", 100)
	if ratio := float64(g.NumAnds()) / 141_000; ratio < 0.7 || ratio > 1.3 {
		t.Fatalf("adder.x100 realized %d ands, want about 141 000", g.NumAnds())
	}
	if cp := g.PartitionCones(96); cp.NumParts() < 100 {
		t.Fatalf("adder.x100 yields only %d partitions", cp.NumParts())
	}
}
