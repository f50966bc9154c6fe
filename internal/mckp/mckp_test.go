package mckp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// paperClasses reproduces the runtime/cost table of the paper's
// Table I (sparc_core: synthesis, placement, routing, STA at 1/2/4/8
// vCPUs).
func paperClasses() []Class {
	mk := func(name string, times [4]int, costs [4]float64) Class {
		cl := Class{Name: name}
		labels := [4]string{"1vCPU", "2vCPU", "4vCPU", "8vCPU"}
		for i := 0; i < 4; i++ {
			cl.Items = append(cl.Items, Item{Label: labels[i], TimeSec: times[i], Cost: costs[i]})
		}
		return cl
	}
	return []Class{
		mk("synthesis", [4]int{6100, 4342, 3449, 3352}, [4]float64{0.16, 0.15, 0.19, 0.37}),
		mk("placement", [4]int{1206, 905, 644, 519}, [4]float64{0.04, 0.04, 0.05, 0.08}),
		mk("routing", [4]int{10461, 5514, 2894, 1692}, [4]float64{0.32, 0.25, 0.21, 0.25}),
		mk("sta", [4]int{183, 119, 90, 82}, [4]float64{0.02, 0.01, 0.02, 0.05}),
	}
}

func TestPaperTableIConstraints(t *testing.T) {
	classes := paperClasses()
	// The paper's Table I rows: 10000s and 6000s feasible, 5645s
	// exactly achievable, 5000s NA.
	cases := []struct {
		deadline int
		feasible bool
	}{
		{10000, true},
		{6000, true},
		{5645, true},
		{5000, false},
	}
	var prevCost float64
	for _, c := range cases {
		sel, err := SolveMinCost(classes, c.deadline)
		if err != nil {
			t.Fatal(err)
		}
		if sel.Feasible != c.feasible {
			t.Fatalf("deadline %d: feasible=%v, want %v", c.deadline, sel.Feasible, c.feasible)
		}
		if !sel.Feasible {
			continue
		}
		if sel.TotalTime > c.deadline {
			t.Fatalf("deadline %d: total time %d exceeds it", c.deadline, sel.TotalTime)
		}
		// Tighter deadlines can only cost more (paper's rising Min Cost column).
		if prevCost > 0 && sel.TotalCost < prevCost-1e-9 {
			t.Fatalf("deadline %d: cost %f dropped below looser deadline's %f",
				c.deadline, sel.TotalCost, prevCost)
		}
		prevCost = sel.TotalCost
	}
	// The minimum achievable time is 5645s in the paper's data.
	if got := MinTotalTime(classes); got != 3352+519+1692+82 {
		t.Fatalf("MinTotalTime = %d", got)
	}
	// The slowest plan is every stage on one vCPU, and at that budget
	// the min-cost plan is the cheapest item of every class.
	maxT := MaxTotalTime(classes)
	if maxT != 6100+1206+10461+183 {
		t.Fatalf("MaxTotalTime = %d", maxT)
	}
	sel, err := SolveMinCost(classes, maxT)
	if err != nil {
		t.Fatal(err)
	}
	for i, cl := range classes {
		if sel.Pick[i] != Cheapest(cl) {
			t.Fatalf("class %s: picked %d at the slowest plan's budget, want the cheapest %d", cl.Name, sel.Pick[i], Cheapest(cl))
		}
	}
}

func TestPaperObjectiveSolver(t *testing.T) {
	classes := paperClasses()
	sel, err := SolvePaper(classes, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if !sel.Feasible || sel.TotalTime > 10000 {
		t.Fatalf("paper solver: %+v", sel)
	}
	if sel.Objective <= 0 {
		t.Fatal("objective not reported")
	}
	// Objective must equal sum of reciprocal picked costs.
	var want float64
	for l, j := range sel.Pick {
		want += 1 / classes[l].Items[j].Cost
	}
	if math.Abs(want-sel.Objective) > 1e-9 {
		t.Fatalf("objective %f != recomputed %f", sel.Objective, want)
	}
}

func TestValidation(t *testing.T) {
	if _, err := SolveMinCost(nil, 10); err == nil {
		t.Fatal("empty classes accepted")
	}
	if _, err := SolveMinCost([]Class{{Name: "x"}}, 10); err == nil {
		t.Fatal("empty class accepted")
	}
	bad := []Class{{Name: "x", Items: []Item{{TimeSec: -1, Cost: 1}}}}
	if _, err := SolveMinCost(bad, 10); err == nil {
		t.Fatal("negative time accepted")
	}
	ok := []Class{{Name: "x", Items: []Item{{TimeSec: 1, Cost: 1}}}}
	if _, err := SolveMinCost(ok, -1); err == nil {
		t.Fatal("negative deadline accepted")
	}
	if _, err := SolvePaper(nil, 10); err == nil {
		t.Fatal("paper solver skipped validation")
	}
	if _, err := SolveGreedy(nil, 10); err == nil {
		t.Fatal("greedy skipped validation")
	}
}

// bruteForce enumerates all selections to find the true min cost.
func bruteForce(classes []Class, deadline int) Selection {
	best := Selection{Feasible: false}
	var rec func(l, t int, cost float64, pick []int)
	rec = func(l, t int, cost float64, pick []int) {
		if t > deadline {
			return
		}
		if l == len(classes) {
			if !best.Feasible || cost < best.TotalCost {
				best = Selection{
					Feasible: true, Pick: append([]int(nil), pick...),
					TotalTime: t, TotalCost: cost,
				}
			}
			return
		}
		for j, it := range classes[l].Items {
			rec(l+1, t+it.TimeSec, cost+it.Cost, append(pick, j))
		}
	}
	rec(0, 0, 0, nil)
	return best
}

// Property: the DP matches brute force on random instances.
func TestQuickDPOptimal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nClasses := rng.Intn(3) + 2
		classes := make([]Class, nClasses)
		for l := range classes {
			n := rng.Intn(3) + 1
			for j := 0; j < n; j++ {
				classes[l].Items = append(classes[l].Items, Item{
					TimeSec: rng.Intn(40),
					Cost:    float64(rng.Intn(100)) / 10,
				})
			}
		}
		deadline := rng.Intn(120)
		got, err := SolveMinCost(classes, deadline)
		if err != nil {
			return false
		}
		want := bruteForce(classes, deadline)
		if got.Feasible != want.Feasible {
			return false
		}
		if !got.Feasible {
			return true
		}
		return math.Abs(got.TotalCost-want.TotalCost) < 1e-9 && got.TotalTime <= deadline
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: greedy is never cheaper than the optimal DP.
func TestQuickGreedyNeverBeatsDP(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		classes := make([]Class, 3)
		for l := range classes {
			for j := 0; j < 4; j++ {
				classes[l].Items = append(classes[l].Items, Item{
					TimeSec: 10 + rng.Intn(100),
					Cost:    0.5 + float64(rng.Intn(50))/10,
				})
			}
		}
		deadline := 60 + rng.Intn(250)
		dp, err1 := SolveMinCost(classes, deadline)
		gr, err2 := SolveGreedy(classes, deadline)
		if err1 != nil || err2 != nil {
			return false
		}
		if !dp.Feasible {
			// If the optimal DP finds nothing, greedy must not either.
			return !gr.Feasible
		}
		if !gr.Feasible {
			return true // greedy may fail where DP succeeds
		}
		return gr.TotalCost >= dp.TotalCost-1e-9 && gr.TotalTime <= deadline
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: the DP's min cost lower-bounds every feasible plan — the
// greedy heuristic's and any randomly sampled selection's.
func TestQuickDPLowerBoundsSampledPlans(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nClasses := rng.Intn(4) + 2
		classes := make([]Class, nClasses)
		for l := range classes {
			n := rng.Intn(4) + 1
			for j := 0; j < n; j++ {
				classes[l].Items = append(classes[l].Items, Item{
					TimeSec: rng.Intn(60),
					Cost:    float64(rng.Intn(200)) / 10,
				})
			}
		}
		deadline := rng.Intn(200)
		dp, err := SolveMinCost(classes, deadline)
		if err != nil {
			return false
		}
		gr, err := SolveGreedy(classes, deadline)
		if err != nil {
			return false
		}
		if gr.Feasible && dp.Feasible && gr.TotalCost < dp.TotalCost-1e-9 {
			return false // greedy beat the "optimal" DP
		}
		// Sample random selections; every feasible one must cost at
		// least the DP optimum, and if any is feasible the DP must be.
		for s := 0; s < 50; s++ {
			t, c := 0, 0.0
			for l := range classes {
				it := classes[l].Items[rng.Intn(len(classes[l].Items))]
				t += it.TimeSec
				c += it.Cost
			}
			if t > deadline {
				continue
			}
			if !dp.Feasible {
				return false // a feasible plan exists but the DP found none
			}
			if c < dp.TotalCost-1e-9 {
				return false // a sampled plan beat the DP
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroDeadlineNonzeroTimes(t *testing.T) {
	classes := []Class{
		{Name: "a", Items: []Item{{TimeSec: 1, Cost: 1}}},
		{Name: "b", Items: []Item{{TimeSec: 0, Cost: 1}}},
	}
	for name, solve := range map[string]func([]Class, int) (Selection, error){
		"dp": SolveMinCost, "paper": SolvePaper, "greedy": SolveGreedy,
	} {
		sel, err := solve(classes, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sel.Feasible {
			t.Fatalf("%s: zero deadline with a mandatory 1s item reported feasible", name)
		}
	}
}

func TestEmptyClassAmongNonEmpty(t *testing.T) {
	classes := []Class{
		{Name: "full", Items: []Item{{TimeSec: 1, Cost: 1}}},
		{Name: "empty"},
	}
	for name, solve := range map[string]func([]Class, int) (Selection, error){
		"dp": SolveMinCost, "paper": SolvePaper, "greedy": SolveGreedy,
	} {
		if _, err := solve(classes, 10); err == nil {
			t.Fatalf("%s: empty class among non-empty ones accepted", name)
		}
	}
}

// TestSelectionExport: solved plans export as labeled picks in class
// order; infeasible and mismatched selections refuse to.
func TestSelectionExport(t *testing.T) {
	classes := paperClasses()
	sel, err := SolveMinCost(classes, 10000)
	if err != nil {
		t.Fatal(err)
	}
	picks, err := sel.Export(classes)
	if err != nil {
		t.Fatal(err)
	}
	if len(picks) != len(classes) {
		t.Fatalf("%d picks for %d classes", len(picks), len(classes))
	}
	var time int
	var cost float64
	for l, p := range picks {
		if p.Class != classes[l].Name {
			t.Fatalf("pick %d class %q, want %q", l, p.Class, classes[l].Name)
		}
		it := classes[l].Items[sel.Pick[l]]
		if p.Label != it.Label || p.TimeSec != it.TimeSec || p.Cost != it.Cost {
			t.Fatalf("pick %d = %+v, item %+v", l, p, it)
		}
		time += p.TimeSec
		cost += p.Cost
	}
	if time != sel.TotalTime || math.Abs(cost-sel.TotalCost) > 1e-9 {
		t.Fatalf("export totals %d/%f vs selection %d/%f", time, cost, sel.TotalTime, sel.TotalCost)
	}
	if _, err := (Selection{Feasible: false}).Export(classes); err == nil {
		t.Fatal("infeasible selection exported")
	}
	if _, err := (Selection{Feasible: true, Pick: []int{0}}).Export(classes); err == nil {
		t.Fatal("mismatched pick length exported")
	}
	if _, err := (Selection{Feasible: true, Pick: []int{9, 0, 0, 0}}).Export(classes); err == nil {
		t.Fatal("out-of-range pick exported")
	}
}

func TestFixedProvisionBaselines(t *testing.T) {
	classes := paperClasses()
	over, err := FixedProvision(classes, Fastest)
	if err != nil {
		t.Fatal(err)
	}
	under, err := FixedProvision(classes, Cheapest)
	if err != nil {
		t.Fatal(err)
	}
	// Over-provisioning is the fastest and most expensive extreme in
	// the paper's data; under-provisioning the slowest.
	if over.TotalTime >= under.TotalTime {
		t.Fatalf("over-provision time %d not below under-provision %d", over.TotalTime, under.TotalTime)
	}
	opt, err := SolveMinCost(classes, over.TotalTime+2000)
	if err != nil {
		t.Fatal(err)
	}
	if !opt.Feasible || opt.TotalCost > over.TotalCost {
		t.Fatalf("optimizer (%f) not cheaper than over-provisioning (%f)", opt.TotalCost, over.TotalCost)
	}
	bad := func(Class) int { return 99 }
	if _, err := FixedProvision(classes, bad); err == nil {
		t.Fatal("out-of-range provision accepted")
	}
}

func TestTightestFeasibleDeadlinePicksFastest(t *testing.T) {
	classes := paperClasses()
	minTime := MinTotalTime(classes)
	sel, err := SolveMinCost(classes, minTime)
	if err != nil {
		t.Fatal(err)
	}
	if !sel.Feasible || sel.TotalTime != minTime {
		t.Fatalf("tightest deadline: %+v", sel)
	}
	for l, j := range sel.Pick {
		if j != Fastest(classes[l]) {
			t.Fatalf("class %d: picked %d, not fastest", l, j)
		}
	}
	// One second tighter must be NA.
	na, err := SolveMinCost(classes, minTime-1)
	if err != nil {
		t.Fatal(err)
	}
	if na.Feasible {
		t.Fatal("sub-minimum deadline reported feasible")
	}
}

// TestFarDeadlinePicksCheapest: a deadline far past any plan's runtime
// costs the solver nothing extra and returns the cheapest feasible
// pick — the same selection, to the bit, as at the slowest plan's
// total, past which no budget changes anything.
func TestFarDeadlinePicksCheapest(t *testing.T) {
	classes := paperClasses()
	for name, solve := range map[string]func([]Class, int) (Selection, error){
		"dp": SolveMinCost, "paper": SolvePaper,
	} {
		far, err := solve(classes, 1<<40)
		if err != nil {
			t.Fatal(err)
		}
		near, err := solve(classes, slowestTotal(classes))
		if err != nil {
			t.Fatal(err)
		}
		if diff := sameBits(far, near); diff != "" {
			t.Fatalf("%s: %s", name, diff)
		}
	}
	sel, err := SolveMinCost(classes, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	cheapest, err := FixedProvision(classes, Cheapest)
	if err != nil {
		t.Fatal(err)
	}
	if !sel.Feasible || math.Abs(sel.TotalCost-cheapest.TotalCost) > 1e-9 {
		t.Fatalf("far deadline: %+v, cheapest plan costs %g", sel, cheapest.TotalCost)
	}
}

func TestZeroDeadlineZeroTimes(t *testing.T) {
	classes := []Class{
		{Name: "a", Items: []Item{{TimeSec: 0, Cost: 2}, {TimeSec: 0, Cost: 1}}},
	}
	sel, err := SolveMinCost(classes, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !sel.Feasible || sel.TotalCost != 1 {
		t.Fatalf("zero-time selection: %+v", sel)
	}
}
