package perf

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestInstrsMatchesCounters: Instrs, which reads the front's count
// without touching the simulator, equals Counters().Instrs after every
// event of a seeded stream — on a root probe, on each shard while it
// records, and on the root after each merge. Reading Counters after
// every event changes no outcome: a twin probe that reads nothing
// mid-stream ends with the same counters.
func TestInstrsMatchesCounters(t *testing.T) {
	cfg := smallConfig(64).WithLLCSlices(1, 4)
	for seed := int64(0); seed < 2; seed++ {
		run := func(p *Probe, read bool) {
			rng := rand.New(rand.NewSource(seed))
			check := func(p *Probe, where string) {
				if !read {
					return
				}
				got := p.Instrs()
				if want := p.Counters().Instrs; got != want {
					t.Fatalf("seed %d, %s: Instrs() = %d, Counters().Instrs = %d", seed, where, got, want)
				}
			}
			for round := 0; round < 4; round++ {
				for i := 0; i < 3000; i++ {
					emitOne(p, rng, 6, 1<<30, func(int) {})
					check(p, "root")
				}
				shards := p.Shards(1 + rng.Intn(8))
				for _, sh := range shards {
					for i := rng.Intn(2 * batchLen); i > 0; i-- {
						emitOne(sh, rng, 6, 1<<30, func(int) {})
						check(sh, "shard")
					}
				}
				p.MergeShards(shards)
				check(p, "merge")
			}
		}
		read, quiet := NewProbe(cfg), NewProbe(cfg)
		run(read, true)
		run(quiet, false)
		if read.Instrs() != quiet.Instrs() || read.Counters() != quiet.Counters() {
			t.Fatalf("seed %d: reading mid-stream changed the counters: %+v vs %+v", seed, read.Counters(), quiet.Counters())
		}
	}
}

// TestSettledShardsMergeIdentically: a parallel region whose shards are
// settled before the merge — as par.ForProbe settles each on its own
// worker — leaves every counter of every modelled VM, phase by phase,
// identical to a merge that replays the shards' tails itself.
func TestSettledShardsMergeIdentically(t *testing.T) {
	cfg := smallConfig(64).WithLLCSlices(1, 2, 8)
	for seed := int64(0); seed < 3; seed++ {
		run := func(settle bool) (*Probe, *Report) {
			rng := rand.New(rand.NewSource(seed))
			p := NewProbe(cfg)
			rep := &Report{}
			for round := 0; round < 5; round++ {
				emit(p, rng, rng.Intn(2*batchLen))
				shards := p.Shards(1 + rng.Intn(8))
				for _, sh := range shards {
					emit(sh, rng, rng.Intn(3*batchLen))
					if settle {
						sh.Settle()
					}
				}
				p.MergeShards(shards)
				rep.Phases = append(rep.Phases, p.TakePhase("region", 0.5, len(shards)))
			}
			return p, rep
		}
		sp, settled := run(true)
		up, unsettled := run(false)
		for _, n := range cfg.LLCSlices {
			if a, b := sp.ReportFor(settled, n), up.ReportFor(unsettled, n); !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d, %d slices: settled shards merged to\n%+v\nunsettled to\n%+v", seed, n, a.Phases, b.Phases)
			}
		}
	}
}
