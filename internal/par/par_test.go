package par

import (
	"runtime"
	"sync/atomic"
	"testing"

	"edacloud/internal/perf"
)

func testPools(t *testing.T) []*Pool {
	t.Helper()
	return []*Pool{Fixed(1), Fixed(2), Fixed(8)}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, p := range testPools(t) {
		for _, n := range []int{0, 1, 7, 100, 1000} {
			for _, grain := range []int{0, 1, 3, 64, 5000} {
				hits := make([]int32, n)
				p.For(n, grain, func(lo, hi int) {
					if lo < 0 || hi > n || lo >= hi {
						t.Errorf("workers=%d n=%d grain=%d: bad chunk [%d,%d)", p.Workers(), n, grain, lo, hi)
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("workers=%d n=%d grain=%d: index %d visited %d times", p.Workers(), n, grain, i, h)
					}
				}
			}
		}
	}
}

func TestForNilPoolRunsSerially(t *testing.T) {
	var p *Pool
	sum := 0
	p.For(10, 3, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum += i
		}
	})
	if sum != 45 {
		t.Fatalf("nil-pool For sum = %d", sum)
	}
}

func TestMapOrder(t *testing.T) {
	for _, p := range testPools(t) {
		got := Map(p, 100, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: Map[%d] = %d", p.Workers(), i, v)
			}
		}
	}
	if Map(Fixed(2), 0, func(i int) int { return i }) != nil {
		t.Fatal("empty Map should be nil")
	}
}

// TestForProbeDeterministicCounters: the shard layout is a pure
// function of the iteration shape, so the simulated counters must be
// identical for every worker count.
func TestForProbeDeterministicCounters(t *testing.T) {
	run := func(p *Pool) perf.Counters {
		probe := perf.NewProbe(perf.DefaultProbeConfig())
		// Two regions back to back: shard state must persist and merge
		// deterministically across regions.
		for region := 0; region < 2; region++ {
			p.ForProbe(probe, 1000, 16, func(lo, hi, shard int, sp *perf.Probe) {
				for i := lo; i < hi; i++ {
					sp.LoadHot(region, uint64(i))
					sp.Branch(0x7, i%3 == 0)
					sp.Ops(5)
				}
			})
		}
		return probe.Counters()
	}
	want := run(Fixed(1))
	if want.Instrs == 0 {
		t.Fatal("no events recorded")
	}
	for _, p := range testPools(t) {
		if got := run(p); got != want {
			t.Fatalf("workers=%d: counters %+v, want %+v", p.Workers(), got, want)
		}
	}
}

// TestForProbeSettledMatchesSerialMerge: ForProbe settles each shard on
// the worker that ran it; the counters of every modelled VM, phase by
// phase, are those of the same chunks run shard by shard on the caller
// and merged unsettled, for every worker count and shard count.
func TestForProbeSettledMatchesSerialMerge(t *testing.T) {
	cfg := perf.DefaultProbeConfig().WithLLCSlices(1, 4)
	body := func(lo, hi, shard int, sp *perf.Probe) {
		for i := lo; i < hi; i++ {
			sp.Load(uint64(i*4099+shard*977) % (1 << 22))
			sp.LoadHot(shard, uint64(i))
			sp.Branch(uint64(i%29), i%3 == 0)
			sp.LoadRange(uint64(i)*256, 1+i%9, 24)
			sp.Ops(5)
		}
	}
	shapes := [][2]int{{3, 1}, {100, 7}, {4000, 16}, {9000, 1}}
	run := func(region func(probe *perf.Probe, n, grain int)) []perf.Phase {
		probe := perf.NewProbe(cfg)
		var phases []perf.Phase
		for _, s := range shapes {
			body(0, 50, 0, probe)
			region(probe, s[0], s[1])
			phases = append(phases, probe.TakePhase("region", 0.5, s[0]))
		}
		return phases
	}
	want := run(func(probe *perf.Probe, n, grain int) {
		chunks := (n + grain - 1) / grain
		shards := probe.Shards(min(ProbeShards, chunks))
		for s := range shards {
			for c := s; c < chunks; c += len(shards) {
				body(c*grain, min(c*grain+grain, n), s, shards[s])
			}
		}
		probe.MergeShards(shards)
	})
	for _, p := range testPools(t) {
		got := run(func(probe *perf.Probe, n, grain int) { p.ForProbe(probe, n, grain, body) })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d, region %d: %+v, want %+v", p.Workers(), i, got[i].C, want[i].C)
			}
		}
	}
}

func TestForProbeNilProbe(t *testing.T) {
	hits := make([]int32, 500)
	Fixed(4).ForProbe(nil, len(hits), 8, func(lo, hi, shard int, sp *perf.Probe) {
		if sp != nil {
			t.Error("nil probe should yield nil shards")
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

// TestNestedForNoDeadlock: a parallel region launched from inside a
// parallel region must degrade gracefully instead of deadlocking on a
// saturated pool.
func TestNestedForNoDeadlock(t *testing.T) {
	p := Fixed(2)
	var total atomic.Int64
	p.For(8, 1, func(lo, hi int) {
		p.For(100, 10, func(ilo, ihi int) {
			total.Add(int64(ihi - ilo))
		})
	})
	if total.Load() != 800 {
		t.Fatalf("nested For total = %d, want 800", total.Load())
	}
}

func TestPoolReuseAcrossCalls(t *testing.T) {
	p := Fixed(4)
	for iter := 0; iter < 200; iter++ {
		var n atomic.Int64
		p.For(64, 4, func(lo, hi int) { n.Add(int64(hi - lo)) })
		if n.Load() != 64 {
			t.Fatalf("iter %d: covered %d of 64", iter, n.Load())
		}
	}
}

func TestFixedPoolsAreCached(t *testing.T) {
	if Fixed(3) != Fixed(3) {
		t.Fatal("Fixed(3) not cached")
	}
	if Fixed(0) != Fixed(runtime.GOMAXPROCS(0)) {
		t.Fatal("Fixed(0) is not the GOMAXPROCS pool")
	}
	if Fixed(5).Workers() != 5 {
		t.Fatalf("Workers = %d", Fixed(5).Workers())
	}
}
