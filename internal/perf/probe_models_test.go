package perf

import (
	"math/rand"
	"reflect"
	"testing"
)

// eventSink is what the engines see of a probe; Probe and refProbe
// both satisfy it, so one seeded stream can drive either.
type eventSink[P any] interface {
	Load(addr uint64)
	Store(addr uint64)
	LoadRange(addr uint64, n, elemSize int)
	LoadHot(region int, idx uint64)
	StoreHot(region int, idx uint64)
	LoadCold(n int)
	LoopBranches(n int)
	Branch(site uint64, taken bool)
	FPScalar(n int)
	FPVector(n int)
	Ops(n int)
	Shards(n int) []P
	MergeShards(shards []P)
	Counters() Counters
	TakePhase(name string, parallelFraction float64, chunks int) Phase
	TakePhaseMeasured(name string, parallelInstrs uint64, chunks int) Phase
}

// addr draws from a 4 KiB hot window three times in four and from
// 512 KiB otherwise, so a 1 KiB L1 misses often and 8–64 KiB last
// levels disagree about what they still hold.
func addr(rng *rand.Rand) uint64 {
	if rng.Intn(4) > 0 {
		return uint64(rng.Intn(4 << 10))
	}
	return uint64(rng.Intn(512 << 10))
}

// emit records n random events on p.
func emit[P eventSink[P]](p P, rng *rand.Rand, n int) {
	for ; n > 0; n-- {
		switch rng.Intn(11) {
		case 0, 1:
			p.Load(addr(rng))
		case 2:
			p.Store(addr(rng))
		case 3:
			// Strides that are not a multiple of the line, across lines.
			p.LoadRange(addr(rng), 1+rng.Intn(40), []int{4, 8, 24, 40, 100}[rng.Intn(5)])
		case 4:
			p.LoadHot(rng.Intn(3), uint64(rng.Intn(1<<12)))
		case 5:
			p.StoreHot(rng.Intn(3), uint64(rng.Intn(1<<12)))
		case 6:
			p.LoadCold(rng.Intn(5))
		case 7:
			p.Branch(uint64(rng.Intn(64)), rng.Intn(3) > 0)
		case 8:
			p.FPScalar(rng.Intn(4))
			p.FPVector(rng.Intn(9))
		case 9:
			p.Ops(rng.Intn(20))
		case 10:
			p.LoopBranches(rng.Intn(6))
		}
	}
}

// drive plays a seeded stream on p the way an engine does — serial
// stretches, parallel regions on 2–8 persistent shards merged back in
// shard order, phase boundaries of both kinds — and returns the phases
// and the final counters.
func drive[P eventSink[P]](p P, seed int64, steps int) ([]Phase, Counters) {
	rng := rand.New(rand.NewSource(seed))
	var phases []Phase
	var parInstrs uint64
	for s := 0; s < steps; s++ {
		switch rng.Intn(8) {
		case 0, 1:
			before := p.Counters().Instrs
			shards := p.Shards(2 + rng.Intn(7))
			for _, sh := range shards {
				emit(sh, rng, rng.Intn(300))
			}
			p.MergeShards(shards)
			parInstrs += p.Counters().Instrs - before
		case 2:
			phases = append(phases, p.TakePhase("modeled", rng.Float64()*1.2-0.1, rng.Intn(9)))
			parInstrs = 0
		case 3:
			phases = append(phases, p.TakePhaseMeasured("measured", parInstrs, 1+rng.Intn(8)))
			parInstrs = 0
		default:
			emit(p, rng, rng.Intn(400))
		}
	}
	phases = append(phases, p.TakePhase("tail", 0.5, 4))
	return phases, p.Counters()
}

func smallConfig(lineBytes int) ProbeConfig {
	return ProbeConfig{L1Bytes: 1 << 10, L1Ways: 2, LLCBytes: 8 << 10, LLCWays: 4, LineBytes: lineBytes, PredictorBits: 6}
}

func newSmallProbe(cfg ProbeConfig) *Probe {
	p := NewProbe(cfg)
	p.HotBytes = 2 << 10
	return p
}

// TestSweepProbeMatchesSingleProbes: one probe modelling K VM sizes
// hands back, for each size, exactly the phases a probe of that size
// alone records on the same stream — every counter of every phase,
// through shards, merges and both kinds of phase boundary.
func TestSweepProbeMatchesSingleProbes(t *testing.T) {
	steps := 400
	if testing.Short() {
		steps = 120
	}
	sizes := []int{2, 1, 3, 8, 0, 4} // 3 realises 2's cache, 0 means 1
	for _, lineBytes := range []int{32, 64} {
		for seed := int64(1); seed <= 4; seed++ {
			cfg := smallConfig(lineBytes)
			sweep := newSmallProbe(cfg.WithLLCSlices(sizes...))
			if len(sweep.llc) != 4 {
				t.Fatalf("%d last-level models for sizes %v, want 4 (1, 2=3, 4, 8)", len(sweep.llc), sizes)
			}
			phases, total := drive(sweep, seed, steps)
			report := &Report{Job: "stream", Phases: phases}
			var hits []uint64
			for i, n := range sizes {
				want, wantTotal := drive(newSmallProbe(cfg.WithLLCSlices(n)), seed, steps)
				got := sweep.ReportFor(report, n)
				if got.Job != "stream" || !reflect.DeepEqual(got.Phases, want) {
					t.Fatalf("line %d seed %d: %d slices: phases differ from the single probe's\n got %+v\nwant %+v", lineBytes, seed, n, got.Phases, want)
				}
				if i == 0 && total != wantTotal {
					t.Fatalf("line %d seed %d: Counters() %+v, the first size alone has %+v", lineBytes, seed, total, wantTotal)
				}
				hits = append(hits, got.Total().LLCHits)
			}
			if !reflect.DeepEqual(report.Phases, phases) {
				t.Fatal("ReportFor modified the report it was given")
			}
			// The stream must tell the sizes apart, or the test shows nothing.
			if !(hits[1] < hits[0] && hits[0] == hits[2] && hits[0] < hits[5] && hits[5] < hits[3] && hits[1] == hits[4]) {
				t.Fatalf("line %d seed %d: LLC hits by size %v = %v do not separate the models", lineBytes, seed, sizes, hits)
			}
		}
	}
}

// TestProbeMatchesPreChangeProbe: with one VM size the probe is the
// probe it replaced, counter for counter and phase for phase.
func TestProbeMatchesPreChangeProbe(t *testing.T) {
	for _, n := range []int{1, 4} {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := smallConfig(64)
			ref := newRefProbe(ProbeConfig{L1Bytes: cfg.L1Bytes, L1Ways: cfg.L1Ways, LLCBytes: n * cfg.LLCBytes,
				LLCWays: cfg.LLCWays, LineBytes: cfg.LineBytes, PredictorBits: cfg.PredictorBits})
			ref.HotBytes = 2 << 10
			want, wantTotal := drive(ref, seed, 300)
			got, total := drive(newSmallProbe(cfg.WithLLCSlices(n)), seed, 300)
			if !reflect.DeepEqual(got, want) || total != wantTotal {
				t.Fatalf("%d slices seed %d: probe and pre-change probe disagree\n got %+v\nwant %+v", n, seed, got, want)
			}
			if wantTotal.LLCHits == 0 || wantTotal.LLCMisses == 0 || wantTotal.LLCPrefetched == 0 {
				t.Fatalf("stream exercises no LLC outcome: %+v", wantTotal)
			}
		}
	}
}

func TestReportForRejectsForeignInput(t *testing.T) {
	p := newSmallProbe(smallConfig(64).WithLLCSlices(1, 2))
	p.Load(0)
	report := &Report{Phases: []Phase{p.TakePhase("a", 0, 1)}}
	for name, fn := range map[string]func(){
		"a size that was not modelled": func() { p.ReportFor(report, 4) },
		"a report with other phases":   func() { p.ReportFor(&Report{}, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ReportFor accepted %s", name)
				}
			}()
			fn()
		}()
	}
}
