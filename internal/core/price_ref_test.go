package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"edacloud/internal/cache"
	"edacloud/internal/cloud"
	"edacloud/internal/mckp"
)

// The choice tables used to be priced in three places and kept as two
// hand-aligned tables. Those loops live on here, as they were, as the
// reference the one pricer (priceStages) and the derived classes
// (newProblem) must reproduce to the bit.

// refBuildDeploymentProblem is the measured-runtime pricing loop.
func refBuildDeploymentProblem(char *DesignCharacterization, catalog *cloud.Catalog) (*DeploymentProblem, error) {
	prob := &DeploymentProblem{Design: char.Design}
	for _, k := range JobKinds() {
		fam := RecommendedFamily(k)
		var choices []StageChoice
		cl := mckp.Class{Name: k.String()}
		for vi, v := range char.VCPUs {
			it, err := catalog.Size(fam, v)
			if err != nil {
				return nil, err
			}
			prof := char.Profiles[vi][int(k)]
			m := machineFor(v, it.AVX, 0, char.WorkScale)
			secs := m.Seconds(prof.Report)
			cost := it.Cost(secs)
			choices = append(choices, StageChoice{Job: k, Instance: it, Seconds: secs, Cost: cost})
			cl.Items = append(cl.Items, mckp.Item{Label: it.Name, TimeSec: int(math.Ceil(secs)), Cost: cost})
			if spot, err := catalog.ByName(it.Name + ".spot"); err == nil {
				spotCost := spot.Cost(secs)
				choices = append(choices, StageChoice{Job: k, Instance: spot, Seconds: secs, Cost: spotCost})
				cl.Items = append(cl.Items, mckp.Item{Label: spot.Name, TimeSec: int(math.Ceil(secs)), Cost: spotCost})
			}
		}
		prob.Stages = append(prob.Stages, choices)
		prob.Classes = append(prob.Classes, cl)
	}
	return prob, nil
}

// refBuildPredicted is the predicted-runtime pricing loop of the old
// BuildPredictedDeploymentProblem, after its predictor call.
func refBuildPredicted(design string, vcpus []int, runtimes map[JobKind][]float64, catalog *cloud.Catalog) (*DeploymentProblem, error) {
	prob := &DeploymentProblem{Design: design}
	for _, k := range JobKinds() {
		fam := RecommendedFamily(k)
		rts := runtimes[k]
		if len(rts) != len(vcpus) {
			return nil, fmt.Errorf("core: %v prediction width %d, want %d", k, len(rts), len(vcpus))
		}
		var choices []StageChoice
		cl := mckp.Class{Name: k.String()}
		for vi, v := range vcpus {
			it, err := catalog.Size(fam, v)
			if err != nil {
				return nil, err
			}
			secs := rts[vi]
			if secs < 1 {
				secs = 1
			}
			cost := it.Cost(secs)
			choices = append(choices, StageChoice{Job: k, Instance: it, Seconds: secs, Cost: cost})
			cl.Items = append(cl.Items, mckp.Item{Label: it.Name, TimeSec: int(math.Ceil(secs)), Cost: cost})
		}
		prob.Stages = append(prob.Stages, choices)
		prob.Classes = append(prob.Classes, cl)
	}
	return prob, nil
}

// refPredictedClasses is the DSE cheap rung's own copy of the
// predicted pricing, which built classes only.
func refPredictedClasses(vcpus []int, seconds map[JobKind][]float64, catalog *cloud.Catalog) ([]mckp.Class, error) {
	var classes []mckp.Class
	for _, k := range JobKinds() {
		secs := seconds[k]
		cl := mckp.Class{Name: k.String()}
		fam := RecommendedFamily(k)
		for vi, v := range vcpus {
			it, err := catalog.Size(fam, v)
			if err != nil {
				return nil, err
			}
			s := secs[vi]
			if s < 1 {
				s = 1
			}
			cl.Items = append(cl.Items, mckp.Item{Label: it.Name, TimeSec: int(math.Ceil(s)), Cost: it.Cost(s)})
		}
		classes = append(classes, cl)
	}
	return classes, nil
}

// refRestrictProblem is the two-table restriction.
func refRestrictProblem(prob *DeploymentProblem, capacity mckp.Capacity) (*DeploymentProblem, error) {
	out := &DeploymentProblem{Design: prob.Design}
	for l, stage := range prob.Stages {
		var choices []StageChoice
		cl := mckp.Class{Name: prob.Classes[l].Name}
		for j, c := range stage {
			if _, ok := capacity[c.Instance.Name]; !ok {
				continue
			}
			choices = append(choices, c)
			cl.Items = append(cl.Items, prob.Classes[l].Items[j])
		}
		if len(choices) == 0 {
			return nil, fmt.Errorf("core: fleet has no instance able to run stage %s of %s",
				prob.Classes[l].Name, prob.Design)
		}
		out.Stages = append(out.Stages, choices)
		out.Classes = append(out.Classes, cl)
	}
	return out, nil
}

// refCacheAdjusted is the two-table cache adjustment.
func refCacheAdjusted(prob *DeploymentProblem, hits []bool) *DeploymentProblem {
	any := false
	for l := range prob.Stages {
		if l < len(hits) && hits[l] {
			any = true
			break
		}
	}
	if !any {
		return prob
	}
	out := &DeploymentProblem{Design: prob.Design}
	out.Stages = make([][]StageChoice, len(prob.Stages))
	out.Classes = make([]mckp.Class, len(prob.Classes))
	for l, stage := range prob.Stages {
		if l >= len(hits) || !hits[l] {
			out.Stages[l] = stage
			out.Classes[l] = prob.Classes[l]
			continue
		}
		adj := make([]StageChoice, len(stage))
		for j, c := range stage {
			adj[j] = StageChoice{Job: c.Job, Instance: c.Instance,
				Seconds: cache.ProbeSeconds, Cost: 0, Cached: true}
		}
		out.Stages[l] = adj
		cl := mckp.Class{Name: prob.Classes[l].Name, Items: make([]mckp.Item, len(prob.Classes[l].Items))}
		for j, it := range prob.Classes[l].Items {
			cl.Items[j] = mckp.Item{Label: it.Label, TimeSec: cache.ProbeTimeSec, Cost: 0}
		}
		out.Classes[l] = cl
	}
	return out
}

// sameBits reports whether two floats are the same bit pattern.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// requireSameClasses fails unless two class lists agree on every
// name, label, time and cost bit.
func requireSameClasses(t *testing.T, what string, got, want []mckp.Class) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d classes, reference %d", what, len(got), len(want))
	}
	for l := range want {
		g, w := got[l], want[l]
		if g.Name != w.Name || len(g.Items) != len(w.Items) {
			t.Fatalf("%s: class %d is %q with %d items, reference %q with %d",
				what, l, g.Name, len(g.Items), w.Name, len(w.Items))
		}
		for j := range w.Items {
			gi, wi := g.Items[j], w.Items[j]
			if gi.Label != wi.Label || gi.TimeSec != wi.TimeSec || !sameBits(gi.Cost, wi.Cost) {
				t.Fatalf("%s: class %s item %d = %+v, reference %+v", what, w.Name, j, gi, wi)
			}
		}
	}
}

// requireSameProblem fails unless two problems agree on the design,
// every stage choice (floats to the bit) and every class.
func requireSameProblem(t *testing.T, what string, got, want *DeploymentProblem) {
	t.Helper()
	if got.Design != want.Design || len(got.Stages) != len(want.Stages) {
		t.Fatalf("%s: design %q with %d stages, reference %q with %d",
			what, got.Design, len(got.Stages), want.Design, len(want.Stages))
	}
	for l := range want.Stages {
		if len(got.Stages[l]) != len(want.Stages[l]) {
			t.Fatalf("%s: stage %d has %d choices, reference %d", what, l, len(got.Stages[l]), len(want.Stages[l]))
		}
		for j, w := range want.Stages[l] {
			g := got.Stages[l][j]
			if g.Job != w.Job || g.Instance != w.Instance || g.Cached != w.Cached ||
				!sameBits(g.Seconds, w.Seconds) || !sameBits(g.Cost, w.Cost) {
				t.Fatalf("%s: stage %d choice %d = %+v, reference %+v", what, l, j, g, w)
			}
		}
	}
	requireSameClasses(t, what, got.Classes, want.Classes)
}

// requireSameDerived runs every restriction and cache adjustment the
// problem admits through both implementations: each capacity set alone
// and each followed by every hit vector.
func requireSameDerived(t *testing.T, what string, got, want *DeploymentProblem, capacities []mckp.Capacity, hitSets [][]bool) {
	t.Helper()
	for _, hits := range hitSets {
		requireSameProblem(t, fmt.Sprintf("%s hits %v", what, hits), got.CacheAdjusted(hits), refCacheAdjusted(want, hits))
	}
	for ci, capacity := range capacities {
		w, werr := refRestrictProblem(want, capacity)
		g, gerr := restrictProblem(got, capacity)
		cw := fmt.Sprintf("%s capacity %d", what, ci)
		if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
			t.Fatalf("%s: error %v, reference %v", cw, gerr, werr)
		}
		if werr != nil {
			continue
		}
		requireSameProblem(t, cw, g, w)
		for _, hits := range hitSets {
			requireSameProblem(t, fmt.Sprintf("%s hits %v", cw, hits), g.CacheAdjusted(hits), refCacheAdjusted(w, hits))
		}
	}
}

// priceCatalogs are the catalogs the reference test prices against.
func priceCatalogs(t *testing.T) map[string]*cloud.Catalog {
	return map[string]*cloud.Catalog{
		"default": cloud.DefaultCatalog(),
		"spot":    spotCatalog(t),
		"minbill": cloud.DefaultCatalog().WithMinBill(60),
	}
}

// priceHitSets is every four-stage hit vector plus the nil, short and
// overlong ones.
func priceHitSets() [][]bool {
	out := [][]bool{nil, {}, {true}, {false, false, false, false, true}, {true, false, true, false, true}}
	for m := 0; m < 16; m++ {
		out = append(out, []bool{m&1 != 0, m&2 != 0, m&4 != 0, m&8 != 0})
	}
	return out
}

// priceCapacities draws seeded capacity sets over the catalog's type
// names: the whole catalog, single types (which empty stages), and
// random subsets.
func priceCapacities(rng *rand.Rand, catalog *cloud.Catalog, n int) []mckp.Capacity {
	all := mckp.Capacity{}
	for _, it := range catalog.Types {
		all[it.Name] = 1
	}
	out := []mckp.Capacity{all, {catalog.Types[0].Name: 1}}
	for i := 0; i < n; i++ {
		c := mckp.Capacity{}
		for _, it := range catalog.Types {
			if rng.Intn(3) > 0 {
				c[it.Name] = 1 + rng.Intn(3)
			}
		}
		out = append(out, c)
	}
	return out
}

// TestPricingMatchesReferenceMeasured: measured choice tables of four
// evaluation designs on the plain, spot and minimum-bill catalogs, and
// every restriction and cache adjustment of them, are bit-identical to
// the two-table loops.
func TestPricingMatchesReferenceMeasured(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, design := range []string{"dyn_node", "aes", "ibex", "jpeg"} {
		char := characterized(t, design)
		for name, catalog := range priceCatalogs(t) {
			what := design + "/" + name
			want, err := refBuildDeploymentProblem(char, catalog)
			if err != nil {
				t.Fatal(err)
			}
			got, err := BuildDeploymentProblem(char, catalog)
			if err != nil {
				t.Fatal(err)
			}
			requireSameProblem(t, what, got, want)
			requireSameDerived(t, what, got, want, priceCapacities(rng, catalog, 8), priceHitSets())
		}
	}
}

// TestPricingMatchesReferencePredicted: predicted choice tables over
// 240 seeded runtime vectors — sub-second, zero, negative and huge
// predictions among them — match the old predicted loop and the DSE's
// class-only copy to the bit, and so do their restrictions and cache
// adjustments. On a spot catalog the one pricer adds each type's spot
// twin, which the old predicted loop never did (no program prices
// predictions on one): the on-demand choices still match to the bit,
// and each twin is priced by the measured path's rule.
func TestPricingMatchesReferencePredicted(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	vcpus := []int{1, 2, 4, 8}
	special := []float64{0, 0.25, 0.999, 1, 1.0000001, -3, 1e9, 1e15, math.MaxFloat64}
	catalogs := priceCatalogs(t)
	for seed := 0; seed < 240; seed++ {
		runtimes := map[JobKind][]float64{}
		for _, k := range JobKinds() {
			for range vcpus {
				var v float64
				switch rng.Intn(4) {
				case 0:
					v = special[rng.Intn(len(special))]
				case 1:
					v = rng.Float64() * 2
				default:
					v = math.Exp(rng.Float64() * 12)
				}
				runtimes[k] = append(runtimes[k], v)
			}
		}
		for name, catalog := range catalogs {
			what := fmt.Sprintf("seed %d/%s", seed, name)
			got, err := BuildPredictedDeploymentProblem("pred", vcpus, runtimes, catalog)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refBuildPredicted("pred", vcpus, runtimes, catalog)
			if err != nil {
				t.Fatal(err)
			}
			if name == "spot" {
				got = onDemandOnly(t, what, got)
			}
			requireSameProblem(t, what, got, want)
			classes, err := refPredictedClasses(vcpus, runtimes, catalog)
			if err != nil {
				t.Fatal(err)
			}
			requireSameClasses(t, what+" dse", got.Classes, classes)
			if seed%8 == 0 {
				requireSameDerived(t, what, got, want, priceCapacities(rng, catalog, 4), priceHitSets())
			}
		}
	}
	short := map[JobKind][]float64{JobSynthesis: {1, 2, 3, 4}}
	_, werr := refBuildPredicted("pred", vcpus, short, catalogs["default"])
	_, gerr := BuildPredictedDeploymentProblem("pred", vcpus, short, catalogs["default"])
	if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
		t.Fatalf("short prediction: error %v, reference %v", gerr, werr)
	}
}

// onDemandOnly checks each spot twin of a predicted problem against
// its on-demand sibling (same instance hardware, same runtime, the
// spot type's bill) and returns the problem without the twins.
func onDemandOnly(t *testing.T, what string, prob *DeploymentProblem) *DeploymentProblem {
	t.Helper()
	stages := make([][]StageChoice, len(prob.Stages))
	for l, stage := range prob.Stages {
		for j, c := range stage {
			if !c.Instance.Revocable {
				stages[l] = append(stages[l], c)
				continue
			}
			od := stage[j-1]
			if c.Instance.OnDemand != od.Instance.Name || !sameBits(c.Seconds, od.Seconds) ||
				!sameBits(c.Cost, c.Instance.Cost(od.Seconds)) {
				t.Fatalf("%s: spot twin %+v of %+v", what, c, od)
			}
		}
	}
	return newProblem(prob.Design, stages)
}
