package perf

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Reset clears the cache's contents.
func (c *Cache) Reset() { clear(c.lines) }

// Reset clears history and counters.
func (bp *BranchPredictor) Reset() {
	for i := range bp.table {
		bp.table[i] = 2
	}
	bp.history = 0
}

// sweepMisses accesses [0, span) in line steps, passes times over, and
// returns the share of the accesses that missed.
func sweepMisses(c *Cache, passes int, span uint64) float64 {
	n, miss := 0, 0
	for pass := 0; pass < passes; pass++ {
		for a := uint64(0); a < span; a += 64 {
			n++
			if !c.Access(a) {
				miss++
			}
		}
	}
	return float64(miss) / float64(n)
}

// mispredicts records n branches at site with the outcomes taken(i)
// and returns the share that the predictor got wrong.
func mispredicts(bp *BranchPredictor, site uint64, n int, taken func(i int) bool) float64 {
	miss := 0
	for i := 0; i < n; i++ {
		if !bp.Record(site, taken(i)) {
			miss++
		}
	}
	return float64(miss) / float64(n)
}

func TestCacheGeometryValidation(t *testing.T) {
	bad := [][3]int{
		{0, 8, 64},         // zero size
		{1024, 0, 64},      // zero ways
		{1024, 8, 0},       // zero line
		{64, 8, 64},        // smaller than one set
		{1024, 8, 48},      // line not power of two
		{1 << 20, 300, 64}, // too associative
	}
	// Non-power-of-two set counts are legal and round down:
	// 96 lines / 2 ways = 48 sets -> 32 sets -> 64 lines.
	c := NewCache(96*64, 2, 64)
	if len(c.lines) != 64 {
		t.Fatalf("rounded geometry has %d lines, want 64", len(c.lines))
	}
	for i, g := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: NewCache(%v) did not panic", i, g)
				}
			}()
			NewCache(g[0], g[1], g[2])
		}()
	}
}

func TestCacheHitsAfterFill(t *testing.T) {
	c := NewCache(1024, 2, 64) // 16 lines, 8 sets
	if c.Access(0) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0) {
		t.Fatal("warm access missed")
	}
	if !c.Access(32) { // same line
		t.Fatal("same-line access missed")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2*64*4, 2, 64) // 2 ways, 4 sets
	// Three lines mapping to set 0: line numbers 0, 4, 8 (addr 0, 256, 512).
	c.Access(0)
	c.Access(256)
	c.Access(0)   // 0 is now MRU, 256 LRU
	c.Access(512) // evicts 256
	if !c.Access(0) {
		t.Fatal("MRU line evicted")
	}
	if c.Access(256) {
		t.Fatal("LRU line not evicted")
	}
}

func TestCacheCapacityMissRate(t *testing.T) {
	// Working set double the cache: repeated sweeps must keep missing
	// with LRU (thrash). Working set within the cache: second sweep hits.
	if r := sweepMisses(NewCache(4096, 4, 64), 4, 4096); r > 0.3 { // 64 lines
		t.Fatalf("fitting working set missed %.0f%%", r*100)
	}
	if r := sweepMisses(NewCache(4096, 4, 64), 4, 8192); r < 0.9 {
		t.Fatalf("thrashing working set only missed %.0f%%", r*100)
	}
}

func TestCacheReset(t *testing.T) {
	c := NewCache(1024, 2, 64)
	c.Access(0)
	c.Reset()
	if c.Access(0) {
		t.Fatal("contents survived reset")
	}
}

func TestBranchPredictorLearnsLoop(t *testing.T) {
	bp := NewBranchPredictor(10)
	// A loop back-edge: always taken. Must converge to ~0 misses.
	if r := mispredicts(bp, 0x40, 1000, func(int) bool { return true }); r > 0.01 {
		t.Fatalf("always-taken branch missed %.1f%%", r*100)
	}
}

func TestBranchPredictorRandomBranch(t *testing.T) {
	bp := NewBranchPredictor(10)
	rng := rand.New(rand.NewSource(1))
	r := mispredicts(bp, 0x80, 20000, func(int) bool { return rng.Intn(2) == 0 })
	if r < 0.35 || r > 0.65 {
		t.Fatalf("random branch miss rate %.2f, want ~0.5", r)
	}
}

func TestBranchPredictorPattern(t *testing.T) {
	// Alternating T/N is captured by global history.
	bp := NewBranchPredictor(12)
	alternate := func(i int) bool { return i%2 == 0 }
	first := mispredicts(bp, 0x99, 4000, alternate)
	if first > 0.05 {
		t.Fatalf("alternating pattern missed %.1f%%", first*100)
	}
	// A reset predictor relearns the pattern exactly as a fresh one did.
	bp.Reset()
	if again := mispredicts(bp, 0x99, 4000, alternate); again != first {
		t.Fatalf("after reset the pattern missed %.4f, fresh %.4f", again, first)
	}
}

func TestBranchPredictorSizeValidation(t *testing.T) {
	for _, bits := range []uint{0, 25} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bits=%d did not panic", bits)
				}
			}()
			NewBranchPredictor(bits)
		}()
	}
}

func TestNilProbeIsNoop(t *testing.T) {
	var p *Probe
	p.Load(0)
	p.Store(0)
	p.LoadRange(0, 10, 8)
	p.Branch(0, true)
	p.FPScalar(5)
	p.FPVector(5)
	p.Ops(5)
	if c := p.Counters(); c.Instrs != 0 {
		t.Fatal("nil probe counted events")
	}
	ph := p.TakePhase("x", 0.5, 4)
	if ph.Name != "x" || ph.C.Instrs != 0 {
		t.Fatal("nil probe TakePhase wrong")
	}
}

func TestProbeCounting(t *testing.T) {
	p := NewProbe(DefaultProbeConfig())
	p.Load(0)
	p.Load(0)
	p.Store(64)
	p.Branch(1, true)
	p.FPScalar(3)
	p.FPVector(8)
	p.Ops(2)
	c := p.Counters()
	if c.Loads != 2 || c.Stores != 1 || c.Branches != 1 {
		t.Fatalf("counts: %+v", c)
	}
	if c.Instrs != 2+1+1+3+8+2 {
		t.Fatalf("instrs = %d", c.Instrs)
	}
	if c.FPScalar != 3 || c.FPVector != 8 {
		t.Fatalf("fp = %d/%d", c.FPScalar, c.FPVector)
	}
	if c.L1Hits+c.L1Misses != c.Loads+c.Stores {
		t.Fatalf("L1 accounting broken: %+v", c)
	}
}

func TestProbeNegativeArgsIgnored(t *testing.T) {
	p := NewProbe(DefaultProbeConfig())
	p.FPScalar(-1)
	p.FPVector(0)
	p.Ops(-5)
	p.LoadRange(0, -3, 8)
	if c := p.Counters(); c.Instrs != 0 {
		t.Fatalf("negative args counted: %+v", c)
	}
}

func TestLoadRangeMatchesScalarLoads(t *testing.T) {
	// The same-line shortcut must follow the configured line size: with
	// 32-byte lines, 24-byte elements land on a new line almost every
	// step, and a hard-coded 64-byte line would book half of them as L1
	// hits without consulting the cache.
	for _, lineBytes := range []int{32, 64, 128} {
		for _, elemSize := range []int{8, 24, 40} {
			cfg := DefaultProbeConfig()
			cfg.LineBytes = lineBytes
			a := NewProbe(cfg)
			b := NewProbe(cfg)
			const n = 1000
			a.LoadRange(1<<20, n, elemSize)
			for i := 0; i < n; i++ {
				b.Load(1<<20 + uint64(i*elemSize))
			}
			ca, cb := a.Counters(), b.Counters()
			if ca.Loads != cb.Loads || ca.L1Hits != cb.L1Hits || ca.L1Misses != cb.L1Misses || ca.LLCMisses != cb.LLCMisses {
				t.Errorf("line %d elem %d: range %+v vs scalar %+v", lineBytes, elemSize, ca, cb)
			}
		}
	}
}

func TestTakePhaseDeltas(t *testing.T) {
	p := NewProbe(DefaultProbeConfig())
	p.Ops(100)
	ph1 := p.TakePhase("a", 0.5, 8)
	p.Ops(50)
	ph2 := p.TakePhase("b", 2.0, 0) // clamped
	if ph1.C.Instrs != 100 || ph2.C.Instrs != 50 {
		t.Fatalf("deltas: %d, %d", ph1.C.Instrs, ph2.C.Instrs)
	}
	if ph2.ParallelFraction != 1 || ph2.Chunks != 1 {
		t.Fatalf("clamping failed: %+v", ph2)
	}
	var r Report
	r.AddPhase(ph1)
	r.AddPhase(ph2)
	if tot := r.Total(); tot.Instrs != 150 {
		t.Fatalf("report total = %d", tot.Instrs)
	}
}

func TestTakePhaseMeasured(t *testing.T) {
	p := NewProbe(DefaultProbeConfig())
	p.Ops(100)
	ph := p.TakePhaseMeasured("a", 75, 6)
	if ph.C.Instrs != 100 || ph.ParallelFraction != 0.75 || ph.Chunks != 6 {
		t.Fatalf("measured phase: %+v", ph)
	}
	// Claimed parallel work beyond the recorded delta is clamped.
	p.Ops(10)
	if ph := p.TakePhaseMeasured("b", 1e6, 2); ph.ParallelFraction != 1 {
		t.Fatalf("overclaim not clamped: %+v", ph)
	}
	// An empty phase has fraction 0, not NaN.
	if ph := p.TakePhaseMeasured("c", 0, 1); ph.ParallelFraction != 0 {
		t.Fatalf("empty phase fraction: %+v", ph)
	}
	// Nil probes stay no-ops.
	var nilp *Probe
	if ph := nilp.TakePhaseMeasured("d", 5, 3); ph.C.Instrs != 0 || ph.Chunks != 3 {
		t.Fatalf("nil probe phase: %+v", ph)
	}
}

func TestCounterRates(t *testing.T) {
	c := Counters{Branches: 200, BranchMisses: 3, L1Misses: 100, LLCMisses: 40, Instrs: 1000, FPVector: 250}
	if got := c.BranchMissPct(); math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("branch miss %% = %g", got)
	}
	if got := c.CacheMissPct(); math.Abs(got-40) > 1e-9 {
		t.Fatalf("cache miss %% = %g", got)
	}
	if got := c.FPVectorPct(); math.Abs(got-25) > 1e-9 {
		t.Fatalf("fp %% = %g", got)
	}
	var zero Counters
	if zero.BranchMissPct() != 0 || zero.CacheMissPct() != 0 || zero.FPVectorPct() != 0 {
		t.Fatal("zero counters should give zero rates")
	}
	if zero.String() == "" || c.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestMachineMoreVCPUsNeverSlower(t *testing.T) {
	ph := Phase{
		C:                Counters{Instrs: 1e9, Branches: 1e8, BranchMisses: 2e6, L1Misses: 5e7, LLCMisses: 1e7},
		ParallelFraction: 0.9,
		Chunks:           64,
	}
	prev := math.Inf(1)
	for _, v := range []int{1, 2, 4, 8} {
		m := Xeon14(v)
		s := m.PhaseSeconds(ph)
		if s <= 0 {
			t.Fatalf("non-positive runtime at %d vCPU", v)
		}
		if s > prev {
			t.Fatalf("runtime increased from %g to %g at %d vCPUs", prev, s, v)
		}
		prev = s
	}
}

func TestMachineSerialJobDoesNotScale(t *testing.T) {
	ph := Phase{C: Counters{Instrs: 1e9}, ParallelFraction: 0, Chunks: 1}
	s1 := Xeon14(1).PhaseSeconds(ph)
	s8 := Xeon14(8).PhaseSeconds(ph)
	if math.Abs(s1-s8)/s1 > 1e-9 {
		t.Fatalf("serial phase scaled: %g vs %g", s1, s8)
	}
}

func TestMachineChunkLimitCapsSpeedup(t *testing.T) {
	ph := Phase{C: Counters{Instrs: 1e9}, ParallelFraction: 1, Chunks: 2}
	s2 := Xeon14(2).PhaseSeconds(ph)
	s8 := Xeon14(8).PhaseSeconds(ph)
	if math.Abs(s2-s8)/s2 > 1e-9 {
		t.Fatalf("speedup beyond chunk count: %g vs %g", s2, s8)
	}
}

func TestMachineAVXHelpsFPWork(t *testing.T) {
	ph := Phase{C: Counters{Instrs: 1e9, FPVector: 8e8}, ParallelFraction: 0, Chunks: 1}
	withAVX := Xeon14(1).PhaseSeconds(ph)
	without := Xeon14(1).WithoutAVX().PhaseSeconds(ph)
	if withAVX >= without {
		t.Fatalf("AVX did not help: %g vs %g", withAVX, without)
	}
	// An integer-only phase must not care.
	intPh := Phase{C: Counters{Instrs: 1e9}, ParallelFraction: 0, Chunks: 1}
	if a, b := Xeon14(1).PhaseSeconds(intPh), Xeon14(1).WithoutAVX().PhaseSeconds(intPh); a != b {
		t.Fatalf("AVX changed integer phase: %g vs %g", a, b)
	}
}

// TestMachineInterferenceAndWorkScale: WorkScale multiplies a phase's
// seconds.
func TestMachineInterferenceAndWorkScale(t *testing.T) {
	ph := Phase{C: Counters{Instrs: 1e9}, ParallelFraction: 0, Chunks: 1}
	base := Xeon14(1).PhaseSeconds(ph)
	m := Xeon14(1)
	m.WorkScale = 10
	if got := m.PhaseSeconds(ph); math.Abs(got-10*base)/base > 1e-9 {
		t.Fatalf("work scale: %g vs %g", got, 10*base)
	}
}

func TestMachineSpeedupAndSeconds(t *testing.T) {
	r := &Report{Job: "test"}
	r.AddPhase(Phase{C: Counters{Instrs: 1e9}, ParallelFraction: 0.95, Chunks: 1024})
	if sp := Xeon14(1).Seconds(r) / Xeon14(8).Seconds(r); !(sp >= 3 && sp <= 8) {
		t.Fatalf("8-vCPU speedup of 95%%-parallel job = %.2f, want 3..8 (Amdahl)", sp)
	}
}

// Property: machine runtime is monotone in every stall counter.
func TestQuickMachineMonotoneInStalls(t *testing.T) {
	m := Xeon14(4)
	f := func(brMiss, l1Miss, llcMiss uint32) bool {
		base := Phase{C: Counters{Instrs: 1e8}, ParallelFraction: 0.5, Chunks: 8}
		more := base
		more.C.BranchMisses = uint64(brMiss)
		more.C.L1Misses = uint64(l1Miss)
		more.C.LLCMisses = uint64(llcMiss)
		return m.PhaseSeconds(more) >= m.PhaseSeconds(base)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: larger LLC never increases the LLC miss count for the same
// access stream (inclusive capacity behaviour under LRU with identical
// set geometry scaling).
func TestLargerLLCFewerMisses(t *testing.T) {
	run := func(llcKB int) uint64 {
		cfg := DefaultProbeConfig()
		cfg.LLCBytes = llcKB << 10
		p := NewProbe(cfg)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 200000; i++ {
			p.Load(uint64(rng.Intn(8 << 20)))
		}
		return p.Counters().LLCMisses
	}
	small := run(512)
	big := run(4096)
	if big >= small {
		t.Fatalf("bigger LLC missed more: %d vs %d", big, small)
	}
}

func TestWithLLCSlices(t *testing.T) {
	base := DefaultProbeConfig()
	realised := func(pc ProbeConfig) int { return len(NewProbe(pc).sim.llc[0].cache.lines) }
	// The default 2.5 MiB slice realises 2 MiB of sets; four of them 8 MiB.
	if got, one := realised(base.WithLLCSlices(4)), realised(base); got != 4*one {
		t.Fatalf("4 slices -> %d lines, one slice has %d", got, one)
	}
	if got, one := realised(base.WithLLCSlices(0)), realised(base); got != one {
		t.Fatalf("0 slices should clamp to 1: %d lines vs %d", got, one)
	}
}

func TestLoadHotBoundedWindow(t *testing.T) {
	cfg := DefaultProbeConfig()
	cfg.LLCBytes = 64 << 10
	p := NewProbe(cfg)
	p.HotBytes = 4 << 10 // window far below L1
	// A huge index range must wrap into the window: after warmup,
	// everything hits.
	for i := uint64(0); i < 100000; i++ {
		p.LoadHot(0, i*7919)
	}
	c := p.Counters()
	missRate := float64(c.L1Misses) / float64(c.Loads)
	if missRate > 0.05 {
		t.Fatalf("hot window missed %.1f%% of loads", missRate*100)
	}
	// Distinct regions must not alias.
	q := NewProbe(cfg)
	q.HotBytes = 4 << 10
	q.LoadHot(0, 1)
	q.LoadHot(1, 1)
	q.LoadHot(2, 1)
	if q.Counters().L1Misses != 3 {
		t.Fatalf("distinct regions aliased: %+v", q.Counters())
	}
}

func TestLoadColdAlwaysMisses(t *testing.T) {
	p := NewProbe(DefaultProbeConfig())
	p.LoadCold(1000)
	c := p.Counters()
	if c.L1Misses != 1000 || c.LLCMisses != 1000 || c.Loads != 1000 {
		t.Fatalf("cold accounting wrong: %+v", c)
	}
	// Cold loads must not pollute the caches: a hot load after a cold
	// burst still behaves normally.
	p.Load(64)
	p.Load(64)
	c2 := p.Counters()
	if c2.L1Hits != 1 {
		t.Fatalf("cache polluted by cold stream: %+v", c2)
	}
}

func TestLoopBranchesPerfectlyPredicted(t *testing.T) {
	p := NewProbe(DefaultProbeConfig())
	p.LoopBranches(5000)
	c := p.Counters()
	if c.Branches != 5000 || c.BranchMisses != 0 {
		t.Fatalf("loop branches mispredicted: %+v", c)
	}
	if c.Instrs != 5000 {
		t.Fatalf("loop branches not counted as instructions: %d", c.Instrs)
	}
}

func TestPrefetchedMissesDiscounted(t *testing.T) {
	// Two phases with equal miss counts: one streaming (prefetchable),
	// one random (not). The streaming phase must cost fewer cycles.
	stream := Phase{C: Counters{Instrs: 1000, L1Misses: 1000, LLCMisses: 1000, LLCPrefetched: 1000}, Chunks: 1}
	random := Phase{C: Counters{Instrs: 1000, L1Misses: 1000, LLCMisses: 1000}, Chunks: 1}
	m := Xeon14(1)
	if cs, cr := m.PhaseCycles(stream), m.PhaseCycles(random); cs >= cr {
		t.Fatalf("prefetch discount missing: stream %g >= random %g", cs, cr)
	}
	// With prefetching disabled both cost the same.
	m.PrefetchEff = 0
	if cs, cr := m.PhaseCycles(stream), m.PhaseCycles(random); cs != cr {
		t.Fatalf("PrefetchEff=0 still discounted: %g vs %g", cs, cr)
	}
}
