package aig

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// randGraph builds a seeded random multi-output AIG.
func randGraph(seed int64, inputs, ands, outputs int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New("rand")
	lits := make([]Lit, 0, inputs+ands)
	for i := 0; i < inputs; i++ {
		lits = append(lits, g.AddInput(""))
	}
	for i := 0; i < ands; i++ {
		a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		b := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		lits = append(lits, g.And(a, b))
	}
	for i := 0; i < outputs; i++ {
		g.AddOutput(lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0), "")
	}
	return g
}

// TestPartitionConesCoversReachableAnds: every AND node reachable from
// an output is owned by exactly one partition, dangling nodes by none,
// and partition node lists are sorted, disjoint and consistent with
// Owner.
func TestPartitionConesCoversReachableAnds(t *testing.T) {
	g := randGraph(11, 8, 300, 12)
	cp := g.PartitionCones(40)
	if cp.NumParts() < 2 {
		t.Fatalf("expected multiple partitions, got %d", cp.NumParts())
	}
	reach := reachable(g)
	seen := make([]int32, g.NumVars())
	for i := range seen {
		seen[i] = -1
	}
	outs := 0
	for pi, part := range cp.Parts {
		outs += len(part.Outputs)
		for i, v := range part.Nodes {
			if i > 0 && part.Nodes[i-1] >= v {
				t.Fatalf("partition %d nodes not ascending", pi)
			}
			if seen[v] != -1 {
				t.Fatalf("var %d owned by partitions %d and %d", v, seen[v], pi)
			}
			seen[v] = int32(pi)
			if cp.Owner[v] != int32(pi) {
				t.Fatalf("Owner[%d] = %d, want %d", v, cp.Owner[v], pi)
			}
			if !g.IsAnd(int(v)) || !reach[v] {
				t.Fatalf("partition %d owns non-reachable or non-AND var %d", pi, v)
			}
		}
	}
	if outs != g.NumOutputs() {
		t.Fatalf("partitions cover %d outputs, want %d", outs, g.NumOutputs())
	}
	for v := 1; v < g.NumVars(); v++ {
		if g.IsAnd(v) && reach[v] && seen[v] == -1 {
			t.Fatalf("reachable AND %d unowned", v)
		}
		if (!g.IsAnd(v) || !reach[v]) && cp.Owner[v] != -1 {
			t.Fatalf("var %d should be unowned", v)
		}
	}
}

// TestPartitionEdgesPointBackward: the invariant cone-parallel
// resynthesis rests on — a fanin of an owned node is an input, the
// constant, or owned by the same or an earlier partition.
func TestPartitionEdgesPointBackward(t *testing.T) {
	f := func(seed int64) bool {
		g := randGraph(seed, 6, 150, 9)
		cp := g.PartitionCones(30)
		for _, part := range cp.Parts {
			for _, v := range part.Nodes {
				f0, f1 := g.Fanins(int(v))
				for _, u := range []int{f0.Var(), f1.Var()} {
					if g.IsAnd(u) && cp.Owner[u] > cp.Owner[v] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionConesSingleAndEmpty: degenerate shapes.
func TestPartitionConesSingleAndEmpty(t *testing.T) {
	g := New("empty")
	g.AddInput("a")
	if cp := g.PartitionCones(8); cp.NumParts() != 0 {
		t.Fatalf("no-output graph got %d partitions", cp.NumParts())
	}
	h := New("one")
	a := h.AddInput("a")
	b := h.AddInput("b")
	h.AddOutput(h.And(a, b), "f")
	cp := h.PartitionCones(8)
	if cp.NumParts() != 1 || len(cp.Parts[0].Nodes) != 1 {
		t.Fatalf("single-cone graph: %+v", cp.Parts)
	}
}

// TestPartitionGrainControlsCount: a smaller grain yields at least as
// many partitions, and a huge grain collapses to one.
func TestPartitionGrainControlsCount(t *testing.T) {
	g := randGraph(5, 8, 400, 16)
	fine := g.PartitionCones(20).NumParts()
	coarse := g.PartitionCones(200).NumParts()
	one := g.PartitionCones(1 << 30).NumParts()
	if fine < coarse {
		t.Fatalf("finer grain produced fewer partitions: %d < %d", fine, coarse)
	}
	if one != 1 {
		t.Fatalf("unbounded grain produced %d partitions", one)
	}
}

// TestAppendIdentityMerge: appending a graph onto a fresh graph with
// identity input mapping reproduces the function.
// TestPartitionConesIntoMatchesFresh: a partitioning rebuilt in the
// storage of an earlier one — of a larger graph, a smaller one or one
// with no outputs — equals a fresh PartitionCones, and its partitions
// own exactly their own runs of the shared arrays.
func TestPartitionConesIntoMatchesFresh(t *testing.T) {
	empty := New("empty")
	empty.AddInput("a")
	graphs := []*Graph{randGraph(3, 10, 900, 30), randGraph(4, 6, 200, 9), empty, randGraph(5, 12, 1500, 40)}
	cp := new(ConePartitioning)
	for i, g := range graphs {
		got := g.PartitionConesInto(cp, 40)
		want := g.PartitionCones(40)
		if got.NumParts() != want.NumParts() || !slices.Equal(got.Owner, want.Owner) {
			t.Fatalf("graph %d: %d parts, fresh %d (or owners differ)", i, got.NumParts(), want.NumParts())
		}
		for pi := range want.Parts {
			gp, wp := got.Parts[pi], want.Parts[pi]
			if !slices.Equal(gp.Outputs, wp.Outputs) || !slices.Equal(gp.Nodes, wp.Nodes) {
				t.Fatalf("graph %d partition %d differs from fresh", i, pi)
			}
			if cap(gp.Outputs) != len(gp.Outputs) || cap(gp.Nodes) != len(gp.Nodes) {
				t.Fatalf("graph %d partition %d can append into its neighbour", i, pi)
			}
		}
	}
}

func TestAppendIdentityMerge(t *testing.T) {
	g := randGraph(21, 7, 120, 6)
	ng := New(g.Name)
	inMap := make([]Lit, g.NumInputs())
	for i := 0; i < g.NumInputs(); i++ {
		inMap[i] = ng.AddInput(g.InputName(i))
	}
	m := ng.Append(g, inMap, nil)
	for i, o := range g.Outputs() {
		ng.AddOutput(m[o.Var()].NotIf(o.IsNeg()), g.OutputName(i))
	}
	if !SimEquiv(g, ng, 3, 8) {
		t.Fatal("Append changed function")
	}
	if ng.NumAnds() > g.NumAnds() {
		t.Fatalf("Append grew the graph: %d > %d ands", ng.NumAnds(), g.NumAnds())
	}
}

// TestAppendDeduplicatesAcrossShards: two shards computing overlapping
// logic merge into shared nodes through the target strash.
func TestAppendDeduplicatesAcrossShards(t *testing.T) {
	mk := func() *Graph {
		s := New("shard")
		a := s.AddInput("a")
		b := s.AddInput("b")
		s.AddOutput(s.And(a, b), "f")
		return s
	}
	ng := New("merged")
	a := ng.AddInput("a")
	b := ng.AddInput("b")
	m1 := mk()
	m2 := mk()
	l1 := ng.Append(m1, []Lit{a, b}, nil)[m1.Output(0).Var()]
	l2 := ng.Append(m2, []Lit{a, b}, nil)[m2.Output(0).Var()]
	if l1 != l2 {
		t.Fatalf("identical shard nodes not deduped: %v vs %v", l1, l2)
	}
	if ng.NumAnds() != 1 {
		t.Fatalf("merged graph has %d ands, want 1", ng.NumAnds())
	}
}

// TestAppendFoldsMappedConstants: input mapping onto constants and
// complementary literals must fold like direct construction.
func TestAppendFoldsMappedConstants(t *testing.T) {
	s := New("shard")
	x := s.AddInput("x")
	y := s.AddInput("y")
	s.AddOutput(s.And(x, y), "f")

	ng := New("merged")
	a := ng.AddInput("a")
	m := ng.Append(s, []Lit{a, a.Not()}, nil)
	if got := m[s.Output(0).Var()]; got != False {
		t.Fatalf("AND(a, !a) after mapping = %v, want False", got)
	}
	if ng.NumAnds() != 0 {
		t.Fatalf("fold created %d ands", ng.NumAnds())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Append with short input map did not panic")
		}
	}()
	ng.Append(s, []Lit{a}, nil)
}

// reachable marks every variable in the transitive fanin cone of some
// primary output, by depth-first search from each output.
func reachable(g *Graph) []bool {
	mark := make([]bool, g.NumVars())
	var stack []int
	for _, o := range g.Outputs() {
		stack = append(stack, o.Var())
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if mark[v] {
				continue
			}
			mark[v] = true
			if g.IsAnd(v) {
				f0, f1 := g.Fanins(v)
				stack = append(stack, f0.Var(), f1.Var())
			}
		}
	}
	return mark
}
