package dse

// Extends synth's recipe property suite from the hand-written
// StandardRecipes to the recipes the DSE autopilot samples: any pass
// sequence up to the sampler's length bound, over random seeds. The
// random-AIG generator is synth's, reproduced here because it is
// unexported there.

import (
	"math/rand"
	"testing"

	"edacloud/internal/aig"
	"edacloud/internal/par"
	"edacloud/internal/synth"
	"edacloud/internal/techlib"
)

func randAIG(seed int64, inputs, andsPerOutput, outputs int) *aig.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := aig.New("rand")
	var ins []aig.Lit
	for i := 0; i < inputs; i++ {
		ins = append(ins, g.AddInput(""))
	}
	var prev []aig.Lit
	for o := 0; o < outputs; o++ {
		lits := append([]aig.Lit(nil), ins...)
		for i := 0; i < 2 && len(prev) > 0; i++ {
			lits = append(lits, prev[rng.Intn(len(prev))])
		}
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

// TestDSESampledRecipesSimEquivAndWorkerInvariant: every recipe the
// DSE sampler emits — arbitrary balance/rewrite/refactor sequences,
// not just the curated StandardRecipes — must uphold the synthesis
// contracts the rest of the stack assumes: each pass preserves the
// function (SimEquiv against its input), and the mapped QoR is
// identical at workers 1, 2 and 8.
func TestDSESampledRecipesSimEquivAndWorkerInvariant(t *testing.T) {
	lib := techlib.Default14nm()
	s := newSampler(42, 6)
	params := make([]Params, 12)
	for i := range params {
		params[i] = s.sample()
	}
	seen := map[string]bool{}
	for seed := int64(1); seed <= 3; seed++ {
		g := randAIG(seed, 12, 70, 8)
		for _, p := range params {
			r := p.Recipe()
			if seed == 1 {
				seen[r.Name] = true
			}
			cur := g
			for pi, pass := range r.Passes {
				next, err := synth.RunPass(cur, pass, nil, 0)
				if err != nil {
					t.Fatalf("seed %d recipe %s pass %d: %v", seed, r.Name, pi, err)
				}
				if !aig.SimEquiv(cur, next, seed<<8|int64(pi), 12) {
					t.Fatalf("seed %d recipe %s: pass %d (%v) changed function", seed, r.Name, pi, pass)
				}
				cur = next
			}
			if !aig.SimEquiv(g, cur, seed, 12) {
				t.Fatalf("seed %d recipe %s: end-to-end function changed", seed, r.Name)
			}

			cells, fp := -1, uint64(0)
			for _, w := range []int{1, 2, 8} {
				res, err := synth.Synthesize(g, lib, synth.Options{
					Recipe:      r,
					StageConfig: par.StageConfig{Workers: w},
				})
				if err != nil {
					t.Fatalf("seed %d recipe %s workers %d: %v", seed, r.Name, w, err)
				}
				if cells < 0 {
					cells, fp = res.Netlist.NumCells(), res.Netlist.Fingerprint()
					continue
				}
				if res.Netlist.NumCells() != cells || res.Netlist.Fingerprint() != fp {
					t.Fatalf("seed %d recipe %s: QoR diverged at workers %d: %d cells/fp %x vs %d/%x",
						seed, r.Name, w, res.Netlist.NumCells(), res.Netlist.Fingerprint(), cells, fp)
				}
			}
		}
	}
	if len(seen) < 6 {
		t.Fatalf("sampler emitted only %d distinct recipes of 12 draws; prior too narrow", len(seen))
	}
}
