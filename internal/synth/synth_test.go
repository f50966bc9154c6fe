package synth

import (
	"math/rand"
	"testing"
	"testing/quick"

	"edacloud/internal/aig"
	"edacloud/internal/designs"
	"edacloud/internal/netlist"
	"edacloud/internal/par"
	"edacloud/internal/perf"
	"edacloud/internal/techlib"
)

var lib = techlib.Default14nm()

// --- truth table machinery ---

func TestTTVarAndCofactors(t *testing.T) {
	for n := 1; n <= 6; n++ {
		for i := 0; i < n; i++ {
			tt := ttVar(i, n)
			for b := 0; b < 1<<uint(n); b++ {
				want := uint64(b >> uint(i) & 1)
				if tt>>uint(b)&1 != want {
					t.Fatalf("ttVar(%d,%d) wrong at row %d", i, n, b)
				}
			}
			if cofactor1(tt, i)&ttMask(n) != ttMask(n) {
				t.Fatalf("cofactor1 of var %d not tautology", i)
			}
			if cofactor0(tt, i)&ttMask(n) != 0 {
				t.Fatalf("cofactor0 of var %d not empty", i)
			}
		}
	}
}

func TestTTDependsAndSupport(t *testing.T) {
	n := 3
	xor01 := ttVar(0, n) ^ ttVar(1, n)
	if !ttDependsOn(xor01, 0, n) || !ttDependsOn(xor01, 1, n) || ttDependsOn(xor01, 2, n) {
		t.Fatal("dependence detection wrong")
	}
	if ttSupportSize(xor01, n) != 2 {
		t.Fatal("support size wrong")
	}
	if ttSupportSize(ttConst(true, n), n) != 0 {
		t.Fatal("constant support not empty")
	}
}

func TestFlipVar(t *testing.T) {
	n := 3
	tt := ttVar(0, n) & ttVar(1, n) // a & b
	flipped := flipVar(tt, 0) & ttMask(n)
	want := ttNot(ttVar(0, n), n) & ttVar(1, n) // !a & b
	if flipped != want {
		t.Fatalf("flipVar: %x want %x", flipped, want)
	}
	if flipVar(flipVar(tt, 1), 1) != tt {
		t.Fatal("flipVar not involutive")
	}
}

// Property: isop covers exactly the onset when no don't-cares exist.
func TestQuickIsopExact(t *testing.T) {
	f := func(raw uint64, nRaw uint8) bool {
		n := int(nRaw%5) + 1
		tt := raw & ttMask(n)
		cubes := isop(nil, tt, 0, n)
		return coverTT(cubes, n) == tt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: with don't-cares, the cover stays within [onset, onset|dc].
func TestQuickIsopRespectsDontCares(t *testing.T) {
	f := func(rawOn, rawDC uint64, nRaw uint8) bool {
		n := int(nRaw%5) + 1
		on := rawOn & ttMask(n)
		dc := rawDC & ttMask(n) &^ on
		cov := coverTT(isop(nil, on, dc, n), n)
		return cov&on == on && cov&^(on|dc) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestIsopSimpleFunctions(t *testing.T) {
	n := 2
	and := ttVar(0, n) & ttVar(1, n)
	cubes := isop(nil, and, 0, n)
	if len(cubes) != 1 || cubes[0].literals() != 2 {
		t.Fatalf("isop(AND) = %+v", cubes)
	}
	or := ttVar(0, n) | ttVar(1, n)
	cubes = isop(nil, or, 0, n)
	if len(cubes) != 2 {
		t.Fatalf("isop(OR) = %+v", cubes)
	}
	if got := isop(nil, 0, 0, n); len(got) != 0 {
		t.Fatalf("isop(0) = %+v", got)
	}
	if coverLiterals(isop(nil, ttMask(n), 0, n)) != 0 {
		t.Fatal("isop(1) should be the empty cube")
	}
}

// --- cut enumeration ---

func TestCutEnumLeafBounds(t *testing.T) {
	g := designs.MustBenchmark("adder", 0.0625)
	ce := newCutEnum(g, 4, 8, nil, nil)
	count := 0
	g.TopoAnds(func(v int, _, _ aig.Lit) {
		for _, c := range ce.Cuts(v) {
			if len(c.Leaves) > 4 {
				t.Fatalf("cut with %d leaves", len(c.Leaves))
			}
			for i := 1; i < len(c.Leaves); i++ {
				if c.Leaves[i] <= c.Leaves[i-1] {
					t.Fatal("cut leaves not sorted")
				}
			}
		}
		count++
	})
	if count == 0 {
		t.Fatal("no AND nodes visited")
	}
}

func TestCutTTMatchesSimulation(t *testing.T) {
	g := aig.New("t")
	a := g.AddInput("a")
	b := g.AddInput("b")
	c := g.AddInput("c")
	x := g.And(a, b.Not())
	y := g.And(x, c)
	_ = y
	tt := cutTT(g, y.Var(), []int32{int32(a.Var()), int32(b.Var()), int32(c.Var())}, nil, new(ttScratch))
	// y = a & !b & c
	want := ttVar(0, 3) & ttNot(ttVar(1, 3), 3) & ttVar(2, 3)
	if tt != want {
		t.Fatalf("cutTT = %x, want %x", tt, want)
	}
}

// --- optimization passes ---

func passPreserves(t *testing.T, name string, pass func(*aig.Graph, *perf.Probe) *aig.Graph) {
	t.Helper()
	for _, bench := range []string{"adder", "bar", "cavlc", "int2float", "priority"} {
		g := designs.MustBenchmark(bench, 0.12)
		opt := pass(g, nil)
		if !aig.Equivalent(g, opt, 1234, 16) {
			t.Fatalf("%s changed function of %s", name, bench)
		}
		if opt.NumInputs() != g.NumInputs() || opt.NumOutputs() != g.NumOutputs() {
			t.Fatalf("%s changed I/O of %s", name, bench)
		}
	}
}

func TestBalancePreservesFunction(t *testing.T) { passPreserves(t, "balance", Balance) }
func TestRewritePreservesFunction(t *testing.T) { passPreserves(t, "rewrite", Rewrite) }
func TestRefactorPreservesFunction(t *testing.T) {
	passPreserves(t, "refactor", Refactor)
}

func TestBalanceReducesRippleDepth(t *testing.T) {
	// A long AND chain must become a balanced tree.
	g := aig.New("chain")
	acc := g.AddInput("x0")
	for i := 1; i < 64; i++ {
		acc = g.And(acc, g.AddInput(""))
	}
	g.AddOutput(acc, "f")
	if d := g.Depth(); d != 63 {
		t.Fatalf("precondition: chain depth %d", d)
	}
	b := Balance(g, nil)
	if d := b.Depth(); d != 6 {
		t.Fatalf("balanced depth = %d, want 6", d)
	}
	if !aig.Equivalent(g, b, 5, 8) {
		t.Fatal("balance broke the chain function")
	}
}

func TestRewriteShrinksRedundantLogic(t *testing.T) {
	// Build f = (a&b) | (a&!b) which simplifies to a.
	g := aig.New("red")
	a := g.AddInput("a")
	b := g.AddInput("b")
	g.AddOutput(g.Or(g.And(a, b), g.And(a, b.Not())), "f")
	rw := Rewrite(g, nil)
	if rw.NumAnds() >= g.NumAnds() {
		t.Fatalf("rewrite did not shrink: %d -> %d ands", g.NumAnds(), rw.NumAnds())
	}
	if !aig.Equivalent(g, rw, 9, 8) {
		t.Fatal("rewrite changed function")
	}
}

func TestQuickPassesPreserveRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := aig.New("rand")
		lits := []aig.Lit{}
		for i := 0; i < 5; i++ {
			lits = append(lits, g.AddInput(""))
		}
		for i := 0; i < 60; i++ {
			a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
			b := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
			lits = append(lits, g.And(a, b))
		}
		for i := 0; i < 4; i++ {
			g.AddOutput(lits[len(lits)-1-i], "")
		}
		for _, pass := range []func(*aig.Graph, *perf.Probe) *aig.Graph{Balance, Rewrite, Refactor} {
			if !aig.Equivalent(g, pass(g, nil), seed, 8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// randAIG builds a seeded random multi-output AIG shaped like a real
// design: each output grows its own random sub-cone over the shared
// inputs with a few cross-links into earlier cones. The block
// structure keeps per-output incremental cone sizes comparable, so
// the graph spans several partitions and the cone-parallel pass paths
// are what the property tests exercise.
func randAIG(seed int64, inputs, andsPerOutput, outputs int) *aig.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := aig.New("rand")
	var ins []aig.Lit
	for i := 0; i < inputs; i++ {
		ins = append(ins, g.AddInput(""))
	}
	var prev []aig.Lit // roots of earlier cones, for cross-links
	for o := 0; o < outputs; o++ {
		lits := append([]aig.Lit(nil), ins...)
		for i := 0; i < 2 && len(prev) > 0; i++ {
			lits = append(lits, prev[rng.Intn(len(prev))])
		}
		// Chain the block so the root's cone spans it; mixing AND, OR
		// and XOR keeps the function balanced instead of collapsing
		// toward a constant.
		acc := lits[rng.Intn(len(lits))]
		for i := 0; i < andsPerOutput; i++ {
			b := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
			switch rng.Intn(3) {
			case 0:
				acc = g.And(acc, b)
			case 1:
				acc = g.Or(acc, b)
			default:
				acc = g.Xor(acc, b)
			}
			lits = append(lits, acc)
		}
		prev = append(prev, acc)
		g.AddOutput(acc.NotIf(rng.Intn(2) == 0), "")
	}
	return g
}

// TestRecipePassesSimEquivOnRandomAIGs is the functional-equivalence
// property behind the parallel rewrite: for seeded random AIGs and
// every standard recipe, each pass's output is SimEquiv to its input.
// This catches miscompiles the bit-identity determinism tests cannot —
// the partitioned path is allowed to differ *structurally* from the
// single-strash serial path, but never *functionally*.
func TestRecipePassesSimEquivOnRandomAIGs(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g := randAIG(seed, 12, 70, 8)
		if parts := g.PartitionCones(PartitionGrain).NumParts(); parts < 3 {
			t.Fatalf("precondition: random AIG spans %d partitions, want >= 3", parts)
		}
		for _, r := range StandardRecipes {
			cur := g
			for pi, p := range r.Passes {
				next, err := RunPass(cur, p, nil, 0)
				if err != nil {
					t.Fatalf("seed %d recipe %s pass %d: %v", seed, r.Name, pi, err)
				}
				if !aig.SimEquiv(cur, next, seed<<8|int64(pi), 12) {
					t.Fatalf("seed %d recipe %s: pass %d (%v) changed function", seed, r.Name, pi, p)
				}
				cur = next
			}
			if !aig.SimEquiv(g, cur, seed, 12) {
				t.Fatalf("seed %d recipe %s: end-to-end function changed", seed, r.Name)
			}
		}
	}
}

// --- trivial-cut guards ---

// TestUsableCutGuard pins the cut-candidate filter: the old guard's
// `n == 1 && leaves[0] == v` clause was dead behind `n < 2`; the self
// test now covers it, 1-leaf cuts over other variables are legal, and
// any cut containing v itself is rejected whatever its size.
func TestUsableCutGuard(t *testing.T) {
	const v, k = 5, 4
	cases := []struct {
		leaves []int32
		want   bool
		name   string
	}{
		{nil, false, "empty"},
		{[]int32{5}, false, "1-leaf self (the formerly dead clause)"},
		{[]int32{3}, true, "1-leaf non-self"},
		{[]int32{2, 3}, true, "2-leaf"},
		{[]int32{2, 5}, false, "self inside 2-leaf"},
		{[]int32{2, 5, 7}, false, "self inside 3-leaf"},
		{[]int32{1, 2, 3, 4, 6}, false, "oversize"},
	}
	for _, c := range cases {
		if got := usableCut(c.leaves, v, k); got != c.want {
			t.Errorf("%s: usableCut(%v) = %v, want %v", c.name, c.leaves, got, c.want)
		}
	}
}

// TestRebuildSkipsSelfCuts injects cut lists containing only each
// node's trivial self cut — the case the dead guard was meant for. The
// rebuild must skip them all (a self cut would read old2new[v] before
// it is written) and fall back to the structural copy.
func TestRebuildSkipsSelfCuts(t *testing.T) {
	g := designs.MustBenchmark("int2float", 0.12)
	ce := &cutEnum{g: g, k: 4, maxCuts: 1, cuts: make([][]Cut, g.NumVars())}
	g.TopoAnds(func(v int, _, _ aig.Lit) {
		ce.cuts[v] = []Cut{{Leaves: []int32{int32(v)}}}
	})
	ng := rebuildSerial(g, nil, ce, 4, 2, brRewriteGain, new(shardScratch))
	if !aig.SimEquiv(g, ng, 7, 12) {
		t.Fatal("self-cut-only rebuild changed function")
	}
	if ng.NumAnds() > g.NumAnds() {
		t.Fatalf("self-cut-only rebuild grew the graph: %d > %d", ng.NumAnds(), g.NumAnds())
	}
}

// TestBuildCoverOneLeaf pins the 1-leaf realization the widened guard
// admits: identity collapses to the leaf wire, complement to its
// negation, at zero added nodes.
func TestBuildCoverOneLeaf(t *testing.T) {
	ng := aig.New("t")
	a := ng.AddInput("a")
	id := ttVar(0, 1)
	if lit := buildCover(ng, isop(nil, id, 0, 1), []aig.Lit{a}, id, 1, nil, new(shardScratch)); lit != a {
		t.Fatalf("identity cover = %v, want %v", lit, a)
	}
	neg := ttNot(id, 1) & ttMask(1)
	if lit := buildCover(ng, isop(nil, neg, 0, 1), []aig.Lit{a}, neg, 1, nil, new(shardScratch)); lit != a.Not() {
		t.Fatalf("complement cover = %v, want %v", lit, a.Not())
	}
	if ng.NumAnds() != 0 {
		t.Fatalf("1-leaf covers added %d nodes", ng.NumAnds())
	}
}

// --- recipes ---

func TestRecipeByName(t *testing.T) {
	r, err := RecipeByName("resyn2")
	if err != nil || len(r.Passes) == 0 {
		t.Fatalf("resyn2: %v", err)
	}
	if _, err := RecipeByName("nope"); err == nil {
		t.Fatal("unknown recipe accepted")
	}
	if PassBalance.String() != "balance" || PassKind(99).String() == "" {
		t.Fatal("pass names wrong")
	}
}

func TestRecipesProduceDistinctStructures(t *testing.T) {
	g := designs.MustBenchmark("int2float", 0.25)
	sizes := map[int]bool{}
	for _, r := range StandardRecipes {
		opt, err := Optimize(g, r, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		if !aig.Equivalent(g, opt, 77, 8) {
			t.Fatalf("recipe %s changed function", r.Name)
		}
		sizes[opt.NumAnds()] = true
	}
	if len(sizes) < 3 {
		t.Errorf("recipes produced only %d distinct sizes; dataset diversity needs more", len(sizes))
	}
}

// --- mapping ---

// netlistEval evaluates a combinational netlist on one input vector.
func netlistEval(t *testing.T, nl *netlist.Netlist, inputs map[string]bool) map[string]bool {
	t.Helper()
	order, err := nl.TopoCells()
	if err != nil {
		t.Fatalf("topo: %v", err)
	}
	val := make([]bool, nl.NumNets())
	for _, pi := range nl.PIs {
		val[pi.Net] = inputs[pi.Name]
	}
	for _, id := range order {
		c := &nl.Cells[id]
		var ins uint16
		for pin, net := range c.Ins {
			if val[net] {
				ins |= 1 << uint(pin)
			}
		}
		if c.Out != netlist.NoNet {
			val[c.Out] = c.Type.Eval(ins)
		}
	}
	out := map[string]bool{}
	for _, po := range nl.POs {
		out[po.Name] = val[po.Net]
	}
	return out
}

func TestMapPreservesFunction(t *testing.T) {
	g := designs.MustBenchmark("adder", 0.0625) // 8-bit adder
	nl, err := MapToCells(g, lib, false, nil)
	if err != nil {
		t.Fatalf("map: %v", err)
	}
	if err := nl.Check(); err != nil {
		t.Fatalf("mapped netlist invalid: %v", err)
	}
	w := g.NumInputs() / 2
	rng := rand.New(rand.NewSource(3))
	sim := aig.NewSimulator(g)
	for trial := 0; trial < 40; trial++ {
		a := uint64(rng.Intn(1 << uint(w)))
		b := uint64(rng.Intn(1 << uint(w)))
		inWords := make([]uint64, g.NumInputs())
		inNames := map[string]bool{}
		for i := 0; i < w; i++ {
			if a>>uint(i)&1 == 1 {
				inWords[i] = ^uint64(0)
				inNames[g.InputName(i)] = true
			}
			if b>>uint(i)&1 == 1 {
				inWords[w+i] = ^uint64(0)
				inNames[g.InputName(w+i)] = true
			}
		}
		want := sim.Run(inWords)
		got := netlistEval(t, nl, inNames)
		for i := 0; i < g.NumOutputs(); i++ {
			name := g.OutputName(i)
			if got[name] != (want[i]&1 == 1) {
				t.Fatalf("trial %d: output %s mismatch", trial, name)
			}
		}
	}
}

func TestMapAfterOptimizationPreservesFunction(t *testing.T) {
	g := designs.MustBenchmark("int2float", 0.25)
	recipe, _ := RecipeByName("resyn2")
	res, err := Synthesize(g, lib, Options{Recipe: recipe})
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	if err := res.Netlist.Check(); err != nil {
		t.Fatalf("netlist invalid: %v", err)
	}
	// Compare mapped netlist against the original AIG on random vectors.
	rng := rand.New(rand.NewSource(8))
	sim := aig.NewSimulator(g)
	for trial := 0; trial < 25; trial++ {
		inWords := make([]uint64, g.NumInputs())
		inNames := map[string]bool{}
		for i := range inWords {
			if rng.Intn(2) == 0 {
				inWords[i] = ^uint64(0)
				inNames[g.InputName(i)] = true
			}
		}
		want := sim.Run(inWords)
		got := netlistEval(t, res.Netlist, inNames)
		for i := 0; i < g.NumOutputs(); i++ {
			if got[g.OutputName(i)] != (want[i]&1 == 1) {
				t.Fatalf("trial %d output %d mismatch", trial, i)
			}
		}
	}
}

func TestMapRegisteredOutputs(t *testing.T) {
	g := designs.MustBenchmark("priority", 0.0625)
	res, err := Synthesize(g, lib, Options{RegisterOutputs: true})
	if err != nil {
		t.Fatal(err)
	}
	nl := res.Netlist
	if err := nl.Check(); err != nil {
		t.Fatalf("netlist invalid: %v", err)
	}
	if nl.NumSeq() != g.NumOutputs() {
		t.Fatalf("DFF count %d, want %d", nl.NumSeq(), g.NumOutputs())
	}
	// A clk PI must exist.
	found := false
	for _, pi := range nl.PIs {
		if pi.Name == "clk" {
			found = true
		}
	}
	if !found {
		t.Fatal("no clk input")
	}
}

func TestMapConstantOutput(t *testing.T) {
	g := aig.New("const")
	a := g.AddInput("a")
	g.AddOutput(aig.False, "zero")
	g.AddOutput(aig.True, "one")
	g.AddOutput(a, "thru")
	nl, err := MapToCells(g, lib, false, nil)
	if err != nil {
		t.Fatalf("map: %v", err)
	}
	if err := nl.Check(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	got := netlistEval(t, nl, map[string]bool{"a": true})
	if got["zero"] != false || got["one"] != true || got["thru"] != true {
		t.Fatalf("constant outputs wrong: %v", got)
	}
}

func TestSynthesizeReportPhases(t *testing.T) {
	g := designs.MustBenchmark("cavlc", 0.2)
	probe := perf.NewProbe(perf.DefaultProbeConfig())
	recipe, _ := RecipeByName("resyn")
	res, err := Synthesize(g, lib, Options{Recipe: recipe, StageConfig: par.StageConfig{Probe: probe}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.Phases) != len(recipe.Passes)+1 {
		t.Fatalf("phases = %d, want %d", len(res.Report.Phases), len(recipe.Passes)+1)
	}
	total := res.Report.Total()
	if total.Instrs == 0 || total.Branches == 0 || total.Loads == 0 {
		t.Fatalf("report empty: %+v", total)
	}
	// Synthesis runtime must shrink with more vCPUs but far from
	// linearly (the paper's Fig. 2d shape).
	s1 := perf.Xeon14(1).Seconds(res.Report)
	s8 := perf.Xeon14(8).Seconds(res.Report)
	if s8 >= s1 {
		t.Fatalf("no scaling: %g vs %g", s1, s8)
	}
	if s1/s8 > 3 {
		t.Fatalf("synthesis scales too well: %.2fx", s1/s8)
	}
}

func TestMapperRejectsBadLibrary(t *testing.T) {
	empty := techlib.NewLibrary("empty", nil)
	g := designs.MustBenchmark("adder", 0.05)
	if _, err := MapToCells(g, empty, false, nil); err == nil {
		t.Fatal("mapping against empty library should fail")
	}
}

func TestAreaMappingSavesArea(t *testing.T) {
	for _, bench := range []string{"int2float", "cavlc", "adder"} {
		g := designs.MustBenchmark(bench, 0.2)
		delayNL, err := MapToCellsObjective(g, lib, false, MapDelay, nil)
		if err != nil {
			t.Fatalf("%s delay map: %v", bench, err)
		}
		areaNL, err := MapToCellsObjective(g, lib, false, MapArea, nil)
		if err != nil {
			t.Fatalf("%s area map: %v", bench, err)
		}
		if err := areaNL.Check(); err != nil {
			t.Fatalf("%s: area-mapped netlist invalid: %v", bench, err)
		}
		if areaNL.Area() > delayNL.Area()*1.001 {
			t.Errorf("%s: area mapping (%.1f) larger than delay mapping (%.1f)",
				bench, areaNL.Area(), delayNL.Area())
		}
	}
}

func TestAreaMappingPreservesFunction(t *testing.T) {
	g := designs.MustBenchmark("adder", 0.0625)
	nl, err := MapToCellsObjective(g, lib, false, MapArea, nil)
	if err != nil {
		t.Fatal(err)
	}
	sim := aig.NewSimulator(g)
	rng := rand.New(rand.NewSource(17))
	w := g.NumInputs() / 2
	for trial := 0; trial < 20; trial++ {
		a := uint64(rng.Intn(1 << uint(w)))
		b := uint64(rng.Intn(1 << uint(w)))
		inWords := make([]uint64, g.NumInputs())
		inNames := map[string]bool{}
		for i := 0; i < w; i++ {
			if a>>uint(i)&1 == 1 {
				inWords[i] = ^uint64(0)
				inNames[g.InputName(i)] = true
			}
			if b>>uint(i)&1 == 1 {
				inWords[w+i] = ^uint64(0)
				inNames[g.InputName(w+i)] = true
			}
		}
		want := sim.Run(inWords)
		got := netlistEval(t, nl, inNames)
		for i := 0; i < g.NumOutputs(); i++ {
			if got[g.OutputName(i)] != (want[i]&1 == 1) {
				t.Fatalf("area-mapped function differs at output %d", i)
			}
		}
	}
}
