package core

import (
	"math"
	"testing"

	"edacloud/internal/cloud"
	"edacloud/internal/flow"
	"edacloud/internal/gcn"
	"edacloud/internal/synth"
	"edacloud/internal/techlib"
)

var lib = techlib.Default14nm()

var charOpts = CharacterizeOptions{Scale: 0.03}

func characterized(t *testing.T, design string) *DesignCharacterization {
	t.Helper()
	char, err := CharacterizeEval(lib, design, charOpts)
	if err != nil {
		t.Fatalf("characterize %s: %v", design, err)
	}
	return char
}

// TestCharacterizeProfilesEveryJobAndVCPU: a characterization holds a
// positive runtime and a non-empty counter set for each of the four
// jobs at each of the four vCPU counts, and looks rows up by both.
func TestCharacterizeProfilesEveryJobAndVCPU(t *testing.T) {
	char := characterized(t, "ibex")
	if char.Cells == 0 || char.WorkScale <= 0 {
		t.Fatalf("characterization empty: %+v", char)
	}
	if len(char.Profiles) != 4 {
		t.Fatalf("expected 4 vCPU rows, got %d", len(char.Profiles))
	}
	for _, row := range char.Profiles {
		if len(row) != 4 {
			t.Fatalf("expected 4 jobs, got %d", len(row))
		}
		for _, p := range row {
			if p.Seconds <= 0 {
				t.Fatalf("%v at %d vCPUs: non-positive runtime", p.Kind, p.VCPUs)
			}
			if p.Counters.Instrs == 0 {
				t.Fatalf("%v: no instructions profiled", p.Kind)
			}
		}
	}
	if _, err := char.Profile(flow.JobRouting, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := char.Profile(flow.JobRouting, 3); err == nil {
		t.Fatal("absent vCPU count accepted")
	}
}

// TestFigure2Shape asserts the orderings of the paper's Fig. 2a-c on a
// mid-size design: routing has the worst branch behaviour; placement
// and routing miss cache far more than synthesis and STA; placement
// leads vector-FP share with STA second.
func TestFigure2Shape(t *testing.T) {
	char := characterized(t, "jpeg")
	get := func(k flow.JobKind, v int) JobProfile {
		p, err := char.Profile(k, v)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// Fig. 2a: routing's branch-miss rate tops every other job at 1 vCPU.
	rb := get(flow.JobRouting, 1).BranchMissPct
	for _, k := range []flow.JobKind{flow.JobSynthesis, flow.JobPlacement, flow.JobSTA} {
		if ob := get(k, 1).BranchMissPct; ob >= rb {
			t.Errorf("Fig2a: %v branch miss %.2f%% >= routing %.2f%%", k, ob, rb)
		}
	}
	// Fig. 2b: placement and routing miss more than synthesis and STA.
	for _, hot := range []flow.JobKind{flow.JobPlacement, flow.JobRouting} {
		for _, cold := range []flow.JobKind{flow.JobSynthesis, flow.JobSTA} {
			if get(hot, 1).CacheMissPct <= get(cold, 1).CacheMissPct {
				t.Errorf("Fig2b: %v cache miss %.1f%% <= %v %.1f%%",
					hot, get(hot, 1).CacheMissPct, cold, get(cold, 1).CacheMissPct)
			}
		}
	}
	// Fig. 2c: placement has the largest AVX share; STA beats synthesis
	// and routing.
	pf := get(flow.JobPlacement, 1).FPVectorPct
	sf := get(flow.JobSTA, 1).FPVectorPct
	for _, k := range []flow.JobKind{flow.JobSynthesis, flow.JobRouting, flow.JobSTA} {
		if of := get(k, 1).FPVectorPct; of >= pf {
			t.Errorf("Fig2c: %v FP share %.1f%% >= placement %.1f%%", k, of, pf)
		}
	}
	for _, k := range []flow.JobKind{flow.JobSynthesis, flow.JobRouting} {
		if of := get(k, 1).FPVectorPct; of >= sf {
			t.Errorf("Fig2c: %v FP share %.1f%% >= STA %.1f%%", k, of, sf)
		}
	}
	// Fig. 2d: routing is the longest job serially and scales best.
	rt1 := get(flow.JobRouting, 1).Seconds
	for _, k := range []flow.JobKind{flow.JobSynthesis, flow.JobPlacement, flow.JobSTA} {
		if get(k, 1).Seconds >= rt1 {
			t.Errorf("Fig2d: %v serial runtime >= routing", k)
		}
	}
	rSpeed := rt1 / get(flow.JobRouting, 8).Seconds
	for _, k := range []flow.JobKind{flow.JobSynthesis, flow.JobPlacement, flow.JobSTA} {
		sp := get(k, 1).Seconds / get(k, 8).Seconds
		if sp >= rSpeed {
			t.Errorf("Fig2d: %v speedup %.2f >= routing %.2f", k, sp, rSpeed)
		}
	}
}

// TestFigure3Shape: large designs keep scaling to 8 vCPUs, small
// designs saturate near 4.
func TestFigure3Shape(t *testing.T) {
	small, err := RoutingSpeedupCurve(lib, "dyn_node", charOpts)
	if err != nil {
		t.Fatal(err)
	}
	big, err := RoutingSpeedupCurve(lib, "swerv", charOpts)
	if err != nil {
		t.Fatal(err)
	}
	if big[7] <= small[7] {
		t.Errorf("Fig3: big design speedup %.2f <= small %.2f at 8 vCPUs", big[7], small[7])
	}
	// Small design saturation: 8 vCPUs barely beats 4.
	smallGain := small[7] / small[3]
	bigGain := big[7] / big[3]
	if smallGain >= bigGain {
		t.Errorf("Fig3: small design 4->8 gain %.2f >= big %.2f (no saturation)", smallGain, bigGain)
	}
	for i := 1; i < 8; i++ {
		if big[i] < big[i-1]*0.9 {
			t.Errorf("Fig3: big design speedup collapsed at %d vCPUs: %v", i+1, big)
		}
	}
}

func TestDeploymentProblemAndTableI(t *testing.T) {
	char := characterized(t, "ibex")
	catalog := cloud.DefaultCatalog()
	prob, err := BuildDeploymentProblem(char, catalog)
	if err != nil {
		t.Fatal(err)
	}
	if len(prob.Classes) != 4 {
		t.Fatalf("classes = %d", len(prob.Classes))
	}
	// Family recommendations must hold.
	if prob.Stages[int(flow.JobSynthesis)][0].Instance.Family != cloud.GeneralPurpose {
		t.Error("synthesis not on general-purpose")
	}
	if prob.Stages[int(flow.JobRouting)][0].Instance.Family != cloud.MemoryOptimized {
		t.Error("routing not on memory-optimized")
	}

	minTime := prob.MinTime()
	over := prob.OverProvision()
	under := prob.UnderProvision()
	if !over.Feasible || !under.Feasible {
		t.Fatal("fixed provisioning infeasible")
	}
	if over.TotalTime > under.TotalTime {
		t.Fatalf("over-provision slower than under-provision: %d vs %d", over.TotalTime, under.TotalTime)
	}

	rows, err := prob.TableI([]int{under.TotalTime * 2, under.TotalTime, (minTime + under.TotalTime) / 2, minTime, minTime - 1})
	if err != nil {
		t.Fatal(err)
	}
	// Loosest deadline must be feasible, sub-minimum must be NA, and
	// cost must not decrease as deadlines tighten.
	if !rows[0].Plan.Feasible {
		t.Fatal("loose deadline infeasible")
	}
	if rows[len(rows)-1].Plan.Feasible {
		t.Fatal("sub-minimum deadline feasible")
	}
	prevCost := 0.0
	for _, r := range rows {
		if !r.Plan.Feasible {
			continue
		}
		if r.Plan.TotalTime > r.DeadlineSec {
			t.Fatalf("plan exceeds deadline: %+v", r)
		}
		if prevCost > 0 && r.Plan.TotalCost < prevCost-1e-9 {
			t.Fatalf("cost decreased under tighter deadline")
		}
		prevCost = r.Plan.TotalCost
	}
	if rows[0].Plan.String() == "" || (&Plan{}).String() != "NA" {
		t.Fatal("plan formatting broken")
	}
}

// TestFigure6Shape: the optimizer sandwiches between the two fixed
// policies — cheaper than over-provisioning, and meeting a deadline
// under-provisioning cannot.
func TestFigure6Shape(t *testing.T) {
	catalog := cloud.DefaultCatalog()
	for _, design := range []string{"ibex", "jpeg"} {
		char := characterized(t, design)
		prob, err := BuildDeploymentProblem(char, catalog)
		if err != nil {
			t.Fatal(err)
		}
		cmp, err := CompareProvisioning(prob, 1.1)
		if err != nil {
			t.Fatal(err)
		}
		if !cmp.Opt.Feasible {
			t.Fatalf("%s: optimizer infeasible at 1.1x slack", design)
		}
		if cmp.Opt.TotalCost > cmp.Over.TotalCost {
			t.Errorf("%s: optimized cost $%.3f above over-provisioning $%.3f",
				design, cmp.Opt.TotalCost, cmp.Over.TotalCost)
		}
		if cmp.SavingVsOverPct <= 0 {
			t.Errorf("%s: no saving vs over-provisioning", design)
		}
		if cmp.Opt.TotalTime >= cmp.Under.TotalTime {
			t.Errorf("%s: optimized schedule as slow as under-provisioning", design)
		}
		if _, err := CompareProvisioning(prob, 0.5); err == nil {
			t.Error("sub-1 slack accepted")
		}
	}
}

func TestDatasetAndPredictor(t *testing.T) {
	ds, err := BuildDataset(lib, DatasetOptions{
		Benchmarks: []string{"adder", "dec", "priority", "cavlc", "int2float"},
		Recipes:    synth.StandardRecipes[:3],
		Scale:      0.06,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumNetlists() != 15 {
		t.Fatalf("netlists = %d, want 15", ds.NumNetlists())
	}
	// 3 netlist jobs x 15 variants + 1 synthesis sample per benchmark.
	if ds.NumLabels() != (15*3+5)*4 {
		t.Fatalf("labels = %d", ds.NumLabels())
	}
	// Runtimes must decrease (weakly) with vCPUs for every sample.
	for _, k := range flow.JobKinds() {
		for _, s := range ds.Jobs[k] {
			for i := 1; i < len(s.Runtimes); i++ {
				if s.Runtimes[i] > s.Runtimes[i-1]*1.001 {
					t.Fatalf("%v %s/%s: runtime rises with vCPUs: %v", k, s.Design, s.Variant, s.Runtimes)
				}
			}
		}
	}

	train, test := ds.SplitByDesign(flow.JobPlacement, 0.2, 3)
	if len(train) == 0 || len(test) == 0 {
		t.Fatal("empty split")
	}
	trainDesigns := map[string]bool{}
	for _, s := range train {
		trainDesigns[s.Design] = true
	}
	for _, s := range test {
		if trainDesigns[s.Design] {
			t.Fatalf("design %s leaked into both splits", s.Design)
		}
	}

	cfg := gcn.Config{Hidden1: 16, Hidden2: 8, FCHidden: 8, LR: 3e-3, Epochs: 40}
	pred, eval, err := TrainPredictor(ds, cfg, 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range flow.JobKinds() {
		je := eval.PerJob[k]
		if je == nil || len(je.Records) == 0 {
			t.Fatalf("%v: no eval records", k)
		}
		if je.AvgAbsPctErr <= 0 || math.IsNaN(je.AvgAbsPctErr) {
			t.Fatalf("%v: bad error metric %g", k, je.AvgAbsPctErr)
		}
		edges, counts := je.Histogram(8)
		if len(edges) != 9 || len(counts) != 8 {
			t.Fatalf("%v: histogram shape wrong", k)
		}
		sum := 0
		for _, c := range counts {
			sum += c
		}
		if sum != len(je.ErrorsSeconds()) {
			t.Fatalf("%v: histogram loses mass", k)
		}
	}
	// Prediction plumbing.
	g := ds.Jobs[flow.JobRouting][0].Graph
	rt, err := pred.PredictRuntimes(flow.JobRouting, g)
	if err != nil || len(rt) != 4 {
		t.Fatalf("PredictRuntimes: %v %v", rt, err)
	}
	for _, v := range rt {
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("negative/NaN predicted runtime %v", rt)
		}
	}
	if _, err := pred.PredictRuntimes(flow.JobKind(99), g); err == nil {
		t.Fatal("unknown job accepted")
	}
}

func TestJobKindStringsAndFamilies(t *testing.T) {
	if flow.JobSynthesis.String() != "synthesis" || flow.JobSTA.String() != "sta" || flow.JobKind(9).String() == "" {
		t.Fatal("job names wrong")
	}
	if RecommendedFamily(flow.JobSynthesis) != cloud.GeneralPurpose ||
		RecommendedFamily(flow.JobPlacement) != cloud.MemoryOptimized ||
		RecommendedFamily(flow.JobRouting) != cloud.MemoryOptimized ||
		RecommendedFamily(flow.JobSTA) != cloud.GeneralPurpose {
		t.Fatal("family recommendations do not match the paper")
	}
}
