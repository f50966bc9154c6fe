package perf

import (
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// rangeWords returns the batch words each line of a LoadRange takes, in
// order: one per new line, two for a line whose address collides with
// the event tags.
func rangeWords(addr uint64, n, elemSize int, lineShift uint) []int {
	var ws []int
	last := ^uint64(0)
	for i := 0; i < n; i++ {
		a := addr + uint64(i*elemSize)
		if a>>lineShift == last {
			continue
		}
		last = a >> lineShift
		if a >= 1<<tagShift {
			ws = append(ws, 2)
		} else {
			ws = append(ws, 1)
		}
	}
	return ws
}

// site is a branch site, now and then with high bits the predictor
// never reads — and the event word has no room for.
func site(rng *rand.Rand) uint64 {
	s := uint64(rng.Intn(64))
	if rng.Intn(4) == 0 {
		s |= rng.Uint64() << 24
	}
	return s
}

// emitOne records one random event of any kind that simulates at most
// left batch words, reporting each simulated access or branch to put
// with the words it takes, in stream order.
func emitOne[P eventSink[P]](p P, rng *rand.Rand, lineShift uint, left int, put func(words int)) {
	switch k := rng.Intn(14); {
	case k == 0:
		p.LoadCold(rng.Intn(5))
	case k == 1:
		p.LoopBranches(rng.Intn(6))
	case k == 2:
		p.FPScalar(rng.Intn(4))
		p.FPVector(rng.Intn(9))
	case k == 3:
		p.Ops(rng.Intn(20))
	case k == 4 && left >= 2:
		// An address whose top bits collide with the tags.
		a := uint64(1+rng.Intn(3))<<tagShift | addr(rng)
		if rng.Intn(2) == 0 {
			p.Load(a)
		} else {
			p.Store(a)
		}
		put(2)
	case k == 5 && left >= 2:
		// A region whose stride puts the hot window past the tags.
		p.LoadHot(1<<28-1+rng.Intn(3), uint64(rng.Intn(1<<12)))
		put(2)
	case k == 6:
		a := addr(rng)
		if rng.Intn(4) == 0 {
			a = 1<<tagShift - uint64(rng.Intn(1<<10)) // a sweep across the tag boundary
		}
		n, size := 1+rng.Intn(40), []int{4, 8, 24, 40, 100}[rng.Intn(5)]
		ws := rangeWords(a, n, size, lineShift)
		total := 0
		for _, w := range ws {
			total += w
		}
		if total > left {
			p.Branch(site(rng), rng.Intn(3) > 0)
			put(1)
			return
		}
		p.LoadRange(a, n, size)
		for _, w := range ws {
			put(w)
		}
	case k < 9:
		p.Load(addr(rng))
		put(1)
	case k < 10:
		p.Store(addr(rng))
		put(1)
	case k < 11:
		p.LoadHot(rng.Intn(3), uint64(rng.Intn(1<<12)))
		put(1)
	case k < 12:
		p.StoreHot(rng.Intn(3), uint64(rng.Intn(1<<12)))
		put(1)
	default:
		p.Branch(site(rng), rng.Intn(3) > 0)
		put(1)
	}
}

// batchModel follows how push and accessEscaped fill a probe's
// batches: fill is the words in the batch in hand, flushes the batches
// handed on (root probes) or replayed where they filled (shards).
type batchModel struct{ fill, flushes int }

func (m *batchModel) put(w int) {
	if batchLen-m.fill < w {
		m.fill = 0
		m.flushes++
	}
	m.fill += w
}

// streamStats counts, on a *Probe, the paths a stream took.
type streamStats struct{ fullSyncs, handOffs, shardFlushes int }

// replayStream plays a seeded stream on p: exactly words batch words of
// every event kind on the probe itself, with sync points of every kind
// — TakePhase, TakePhaseMeasured, Counters, a parallel region on 1–8
// shards fed 0, 1, batch−1, batch, batch+1, 2·batch+3 or a few hundred
// words each — at random offsets, and at every other point where the
// batch in hand is full. It returns the phases and every Counters read;
// on a *Probe it checks at each sync point that the batches hold the
// words the model says, and counts the paths taken.
func replayStream[P eventSink[P]](t *testing.T, p P, seed int64, lineShift uint, words int) ([]Phase, []Counters, streamStats) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var (
		phases    []Phase
		reads     []Counters
		parInstrs uint64
		root      batchModel
		stats     streamStats
	)
	check := func(p P, m *batchModel) {
		if q, ok := any(p).(*Probe); ok && len(q.ev) != m.fill {
			t.Fatalf("seed %d: the batch holds %d words at a sync point, the model %d", seed, len(q.ev), m.fill)
		}
	}
	region := func() {
		measured := rng.Intn(2) == 0
		var before uint64
		if measured {
			before = p.Counters().Instrs
			root.fill = 0
		}
		shards := p.Shards(1 + rng.Intn(8))
		for _, sh := range shards {
			var m batchModel
			left := []int{0, 1, batchLen - 1, batchLen, batchLen + 1, 2*batchLen + 3, rng.Intn(300)}[rng.Intn(7)]
			for left > 0 {
				emitOne(sh, rng, lineShift, left, func(w int) { m.put(w); left -= w })
			}
			check(sh, &m)
			stats.shardFlushes += m.flushes
		}
		p.MergeShards(shards)
		if measured {
			parInstrs += p.Counters().Instrs - before
		}
	}
	syncPoint := func() {
		check(p, &root)
		if root.fill == batchLen {
			stats.fullSyncs++
		}
		switch rng.Intn(5) {
		case 0:
			phases = append(phases, p.TakePhase("modeled", rng.Float64()*1.2-0.1, rng.Intn(9)))
			parInstrs, root.fill = 0, 0
		case 1:
			phases = append(phases, p.TakePhaseMeasured("measured", parInstrs, 1+rng.Intn(8)))
			parInstrs, root.fill = 0, 0
		case 2:
			reads = append(reads, p.Counters())
			root.fill = 0
		default:
			region()
		}
	}
	odds := words/3 + 1 // about three random sync points per stream
	for words > 0 {
		emitOne(p, rng, lineShift, words, func(w int) { root.put(w); words -= w })
		if root.fill == batchLen && rng.Intn(2) == 0 || rng.Intn(odds) == 0 {
			syncPoint()
		}
	}
	check(p, &root)
	stats.handOffs = root.flushes
	phases = append(phases, p.TakePhase("tail", 0.5, 4))
	return phases, append(reads, p.Counters()), stats
}

// TestProbeReplayMatchesReference: the probe that batches its cache and
// branch events — replayed by a helper goroutine, inline by shards and
// at every sync point — reads exactly like the probe that simulated
// each event as it came: the same Counters at every read, the same
// phases and, for each modelled VM size, the same ReportFor, however
// the stream and its sync points fall across batch boundaries.
func TestProbeReplayMatchesReference(t *testing.T) {
	cfg := smallConfig(64)
	lineShift := uint(bits.TrailingZeros(uint(cfg.LineBytes)))
	var total streamStats
	for _, sizes := range [][]int{{2}, {1, 2, 4, 8}} {
		for _, words := range []int{0, 1, batchLen - 1, batchLen, batchLen + 1, 5*batchLen + 7} {
			for seed := int64(1); seed <= 4; seed++ {
				probe := newSmallProbe(cfg.WithLLCSlices(sizes...))
				if len(probe.llc) != len(sizes) {
					t.Fatalf("%d last-level models for sizes %v", len(probe.llc), sizes)
				}
				phases, reads, stats := replayStream(t, probe, seed, lineShift, words)
				total.fullSyncs += stats.fullSyncs
				total.handOffs += stats.handOffs
				total.shardFlushes += stats.shardFlushes
				report := &Report{Job: "replay", Phases: phases}
				for i, n := range sizes {
					ref := newRefProbe(ProbeConfig{L1Bytes: cfg.L1Bytes, L1Ways: cfg.L1Ways, LLCBytes: n * cfg.LLCBytes,
						LLCWays: cfg.LLCWays, LineBytes: cfg.LineBytes, PredictorBits: cfg.PredictorBits})
					ref.HotBytes = probe.HotBytes
					want, wantReads, _ := replayStream(t, ref, seed, lineShift, words)
					if got := probe.ReportFor(report, n).Phases; !reflect.DeepEqual(got, want) {
						t.Fatalf("%v slices, %d words, seed %d: %d-slice phases differ from the reference\n got %+v\nwant %+v",
							sizes, words, seed, n, got, want)
					}
					if i == 0 && !reflect.DeepEqual(reads, wantReads) {
						t.Fatalf("%v slices, %d words, seed %d: Counters reads differ from the reference\n got %+v\nwant %+v",
							sizes, words, seed, reads, wantReads)
					}
				}
				if words >= 5*batchLen {
					c := reads[len(reads)-1]
					if c.L1Hits == 0 || c.LLCHits == 0 || c.LLCMisses == 0 || c.LLCPrefetched == 0 || c.BranchMisses == 0 {
						t.Fatalf("stream exercises too few outcomes: %+v", c)
					}
				}
			}
		}
	}
	if total.fullSyncs < 10 || total.handOffs < 10 || total.shardFlushes < 10 {
		t.Fatalf("the streams took too few of the paths that matter: %+v", total)
	}
}

// TestDroppedProbeLeavesNoGoroutine: a root probe's helper exits once
// it has replayed what it was handed, so a probe dropped between sync
// points leaves no goroutine behind; and a probe that records nothing
// for the simulator, or syncs before a batch fills, starts none.
func TestDroppedProbeLeavesNoGoroutine(t *testing.T) {
	// A helper of an earlier test may still be on its way out, so the
	// count may fall below start but must never rise above it.
	start := runtime.NumGoroutine()

	quiet := NewProbe(DefaultProbeConfig())
	quiet.Ops(10)
	quiet.LoadCold(3)
	quiet.TakePhase("quiet", 0, 1)
	short := NewProbe(DefaultProbeConfig())
	for i := 0; i < batchLen; i++ {
		short.Load(uint64(i) * 64)
	}
	short.Counters()
	if n := runtime.NumGoroutine(); n > start {
		t.Fatalf("%d goroutines after probes that handed off no batch, %d before", n, start)
	}

	func() {
		p := NewProbe(DefaultProbeConfig())
		for i := 0; i < 10*batchLen+1; i++ {
			p.Load(uint64(i) * 64)
			p.Branch(uint64(i), i%3 == 0)
		}
	}()
	runtime.GC()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > start; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 10 s after the probe was dropped, %d before", runtime.NumGoroutine(), start)
		}
		time.Sleep(time.Millisecond)
	}
}

// fuzzConfig draws a probe geometry from fuzz bytes: lines of 16 to
// 128 bytes, an L1 of 1 to 8 ways over 1 to 40 sets and an LLC slice
// of 1 to 16 ways over 1 to 64 sets (set counts that are not a power of
// two round down), a 1- to 14-bit predictor, and the VM sizes to model
// as a bit set over 1..8 slices (none set: one slice).
func fuzzConfig(line, l1Sets, l1Ways, llcSets, llcWays, predBits, slices uint8) (ProbeConfig, []int) {
	lineBytes := 16 << (line % 4)
	l1W, llcW := 1+int(l1Ways%8), 1+int(llcWays%16)
	cfg := ProbeConfig{
		L1Bytes: (1 + int(l1Sets%40)) * l1W * lineBytes, L1Ways: l1W,
		LLCBytes: (1 + int(llcSets%64)) * llcW * lineBytes, LLCWays: llcW,
		LineBytes: lineBytes, PredictorBits: 1 + uint(predBits%14),
	}
	var sizes []int
	for i := 0; i < 8; i++ {
		if slices&(1<<i) != 0 {
			sizes = append(sizes, i+1)
		}
	}
	if sizes == nil {
		sizes = []int{1}
	}
	return cfg.WithLLCSlices(sizes...), sizes
}

// FuzzReplayMatchesReference: over fuzzed geometries, hot-window sizes,
// VM-size sets and stream lengths, a seeded stream of every event kind,
// with sync points and shard regions at random offsets (so the batches
// split anywhere), reads from the batching probe exactly as it reads
// from the probe that simulated each event as it came — every Counters
// read and, per VM size, every phase. The geometry's L1 and LLC caches
// also match the rank-array LRU reference access for access on the
// stream's addresses. Seed corpus in testdata/fuzz; CI fuzzes it for a
// few seconds per run.
func FuzzReplayMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(15), uint8(1), uint8(3), uint8(3), uint8(5), uint8(0x8b), uint16(2<<10), uint16(batchLen+1))
	f.Fuzz(func(t *testing.T, seed int64, line, l1Sets, l1Ways, llcSets, llcWays, predBits, slices uint8, hot, words uint16) {
		cfg, sizes := fuzzConfig(line, l1Sets, l1Ways, llcSets, llcWays, predBits, slices)
		lineShift := uint(bits.TrailingZeros(uint(cfg.LineBytes)))
		n := int(words) % (3*batchLen + 11)
		probe := NewProbe(cfg)
		probe.HotBytes = uint64(hot)
		phases, reads, _ := replayStream(t, probe, seed, lineShift, n)
		report := &Report{Job: "fuzz", Phases: phases}
		for i, k := range sizes {
			refCfg := cfg
			refCfg.LLCSlices, refCfg.LLCBytes = nil, k*cfg.LLCBytes
			ref := newRefProbe(refCfg)
			ref.HotBytes = probe.HotBytes
			want, wantReads, _ := replayStream(t, ref, seed, lineShift, n)
			if got := probe.ReportFor(report, k).Phases; !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v, %d words, seed %d: %d-slice phases differ from the reference\n got %+v\nwant %+v", cfg, n, seed, k, got, want)
			}
			if i == 0 && !reflect.DeepEqual(reads, wantReads) {
				t.Fatalf("%+v, %d words, seed %d: Counters reads differ from the reference\n got %+v\nwant %+v", cfg, n, seed, reads, wantReads)
			}
		}

		rng := rand.New(rand.NewSource(seed))
		for _, geo := range [][2]int{{cfg.L1Bytes, cfg.L1Ways}, {sizes[len(sizes)-1] * cfg.LLCBytes, cfg.LLCWays}} {
			c, ref := NewCache(geo[0], geo[1], cfg.LineBytes), newRefCache(geo[0], geo[1], cfg.LineBytes)
			for i := 0; i < n; i++ {
				a := addr(rng)
				if got, want := c.Access(a), ref.Access(a); got != want {
					t.Fatalf("%d B %d-way cache, access %d at %#x: hit=%v, reference hit=%v", geo[0], geo[1], i, a, got, want)
				}
			}
		}
	})
}
