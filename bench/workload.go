package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"time"

	"edacloud/internal/gcn"
	"edacloud/internal/perf"
)

// sizing fixes every workload's inputs. The benchmark always runs full;
// the smoke test shrinks the inputs and keeps the code paths.
type sizing struct {
	flowDesigns []designSpec
	synthInputs []designSpec
	// serve-replay: characterization scale of the templates, and the
	// length of each of the six traces.
	templateScale float64
	traceJobs     int
	probeCalls    int
	// explore-dse: the predictor's dataset and model, and the search.
	datasetBenchmarks []string
	datasetScale      float64
	gcn               gcn.Config
	exploreDesigns    []string
	exploreScale      float64
	population        int
}

type designSpec struct {
	name  string
	scale float64
}

func (d designSpec) id() string { return fmt.Sprintf("%s@%g", d.name, d.scale) }

var full = sizing{
	flowDesigns: []designSpec{
		{"dyn_node", 1.0}, {"aes", 0.1}, {"ibex", 0.1}, {"jpeg", 0.1}, {"swerv", 0.1}, {"ariane", 0.1},
	},
	// adder.x100 is designs.MillionFamily()[0].
	synthInputs:       []designSpec{{"adder", 100}, {"priority", 40}, {"bar", 10}},
	templateScale:     0.03,
	traceJobs:         400,
	probeCalls:        200,
	datasetBenchmarks: []string{"adder", "bar", "dec", "max", "multiplier", "priority", "sqrt", "voter"},
	datasetScale:      0.06,
	gcn:               gcn.Config{Hidden1: 64, Hidden2: 32, FCHidden: 32, LR: 1e-3, Epochs: 10},
	exploreDesigns:    []string{"aes", "ibex", "jpeg"},
	exploreScale:      0.05,
	population:        8,
}

var smoke = sizing{
	flowDesigns: []designSpec{
		{"dyn_node", 0.1}, {"aes", 0.01}, {"ibex", 0.01},
	},
	synthInputs:       []designSpec{{"adder", 2}, {"priority", 1}, {"bar", 0.3}},
	templateScale:     0.005,
	traceJobs:         60,
	probeCalls:        3,
	datasetBenchmarks: []string{"adder", "dec"},
	datasetScale:      0.02,
	gcn:               gcn.Config{Hidden1: 8, Hidden2: 6, FCHidden: 6, LR: 3e-3, Epochs: 2},
	exploreDesigns:    []string{"dyn_node"},
	exploreScale:      0.01,
	population:        3,
}

// probeVCPUs is the simulated machine every instrumented engine run is
// profiled as, the edaflow default.
const probeVCPUs = 4

// config is one invocation's inputs. seconds is the length of timed
// work the driver asks of each workload; it fixes the number of rounds
// (workload.rounds) and nothing else.
type config struct {
	seed    int64
	seconds float64
	traced  bool
	size    sizing
}

// opResult is what one item of a round reports.
type opResult struct {
	// units is the work done, in the workload's unit.
	units float64
	// use is the host cost of the timed part; covered is the share of
	// it that lay inside spans (traced ops only).
	use     usage
	covered time.Duration
	// lat holds one latency sample per op; attempted also counts the
	// requests that accompany an op, failed those that returned an error
	// or an unexpected status.
	lat               []time.Duration
	attempted, failed int
	// checks lists the correctness checks that failed.
	checks []string
	// digest hashes the simulated outputs; counters are exact work
	// counts read from public results.
	digest   uint64
	counters map[string]float64
}

func (r *opResult) checkf(ok bool, format string, args ...any) {
	if !ok {
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
}

// fail records an op that returned an error.
func (r *opResult) fail(name string, err error) {
	r.failed++
	r.checks = append(r.checks, fmt.Sprintf("%s: %v", name, err))
}

// item is one element of a round's op multiset. run executes it once,
// traced when tr is non-nil.
type item struct {
	name string
	run  func(tr *tracer) opResult
}

// plan is a workload after set-up.
type plan struct {
	round []item
	// warm is the item every set-up is followed by as a warm-up: the one
	// with the smallest input where inputs differ in size, else the first.
	warm int
	// oracle, when set, runs once before the first round and computes
	// the expected outputs the checks compare against.
	oracle func(tr *tracer) error
	// finish, when set, runs once after the rounds of a traced run and
	// returns further per-layer values.
	finish func(tr *tracer) (map[string]float64, error)
}

type workload struct {
	name string
	// unit is what throughput counts per second.
	unit string
	// roundS is the timed work of one full-size round in seconds, on the
	// 2-core sandbox at the commit that defined the benchmark. It is a
	// constant, so that a run has the same number of rounds on every
	// commit and host, however fast they are.
	roundS float64
	setup  func(c config, tr *tracer) (*plan, error)
}

var workloads = []workload{
	{"flow-full", "flow", 3, setupFlowFull},
	{"synth-large", "kAND", 10, setupSynthLarge},
	{"serve-replay", "decision", 2.5, setupServeReplay},
	{"explore-dse", "trial", 7.5, setupExploreDSE},
}

// rounds is how many rounds the workload runs to fill the seconds asked
// for: 5, 2, 6 and 2 at BENCHMARK.json's 15. It is never below two,
// because a traced run needs one round of each kind.
func (w *workload) rounds(seconds float64) int {
	return max(2, int(math.Round(seconds/w.roundS)))
}

// roundStats is one round's totals.
type roundStats struct {
	traced  bool
	units   float64
	use     usage
	covered time.Duration
	// itemWall is the timed wall clock of each of the round's items, and
	// lat every op's latency, both in the plan's order whatever order the
	// items ran in: an index names the same item or op in every round.
	itemWall, lat     []time.Duration
	attempted, failed int
	checks            []string
	digest            uint64
	counters          map[string]float64
	peakHeap          uint64
}

// running is a workload during a run.
type running struct {
	w      *workload
	plan   *plan
	setupS []float64
	rounds []roundStats
	extra  map[string]float64
}

// setupRuns is how often a workload is set up and warmed; setup_s is
// the median.
const setupRuns = 3

// prepare sets the workload up and warms it with the plan's warm-up op,
// setupRuns times over. One repetition's time is everything the
// program does before the first timed op: the set-up and the timed part
// of the warm-up op, whose lazy initialisation it so includes. The last
// repetition's plan is the one kept, and the only one traced. The
// oracle, which is the benchmark's work and not the program's, runs
// once afterwards; the warm-up's output therefore goes unchecked, and
// round 0 runs and checks the same op again.
func prepare(w *workload, c config, tr *tracer) (*running, error) {
	r := &running{w: w}
	tr.scope(w.name, -1)
	for i := 0; i < setupRuns; i++ {
		t := tr
		if i < setupRuns-1 {
			t = nil
		}
		runtime.GC()
		t.nextOp()
		start := time.Now()
		p, err := w.setup(c, t)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		d := time.Since(start)
		res := p.round[p.warm].run(nil)
		if res.failed > 0 {
			return nil, fmt.Errorf("%s: warm-up: %v", w.name, res.checks)
		}
		r.setupS = append(r.setupS, (d + res.use.wall).Seconds())
		r.plan = p
	}
	if r.plan.oracle != nil {
		tr.nextOp()
		if err := r.plan.oracle(tr); err != nil {
			return nil, fmt.Errorf("%s: oracle: %w", w.name, err)
		}
	}
	return r, nil
}

// runRound executes the round's items once in an order drawn from the
// seed and the round's number.
func (r *running) runRound(c config, tr *tracer) {
	n := len(r.rounds)
	tr.scope(r.w.name, n)
	rs := roundStats{traced: tr != nil, counters: map[string]float64{}}
	order := rand.New(rand.NewSource(c.seed*7919 + int64(n))).Perm(len(r.plan.round))
	var sampler *heapSampler
	if c.traced {
		sampler = startHeapSampler()
	}
	results := make([]opResult, len(order))
	for _, i := range order {
		// Start every op from a collected heap, so that one op's garbage
		// is not charged to the next.
		runtime.GC()
		tr.nextOp()
		results[i] = r.plan.round[i].run(tr)
	}
	if sampler != nil {
		rs.peakHeap = sampler.stop()
	}
	// Totals are taken in the plan's order, not the order the items ran
	// in, so that float sums and the digest repeat from round to round.
	h := fnv.New64a()
	for i, res := range results {
		name := r.plan.round[i].name
		rs.units += res.units
		rs.use.add(res.use)
		rs.itemWall = append(rs.itemWall, res.use.wall)
		rs.covered += res.covered
		rs.lat = append(rs.lat, res.lat...)
		rs.attempted += res.attempted
		rs.failed += res.failed
		for _, msg := range res.checks {
			rs.checks = append(rs.checks, fmt.Sprintf("round %d: %s: %s", n, name, msg))
		}
		for k, v := range res.counters {
			rs.counters[k] += v
		}
		fmt.Fprintf(h, "%s=%016x;", name, res.digest)
	}
	rs.digest = h.Sum64()
	r.rounds = append(r.rounds, rs)
}

// timeOp runs fn as the timed part of an op and fills in the result's
// host cost.
func timeOp(res *opResult, tr *tracer, fn func()) {
	before := tr.covered()
	m := startMeter()
	fn()
	res.use = m.stop()
	res.covered = tr.covered() - before
}

// digestOf hashes a rendering of simulated results.
func digestOf(format string, args ...any) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, format, args...)
	return h.Sum64()
}

// simSeconds is the simulated runtime of the reports on the profiled
// machine, and their instruction count in millions.
func simSeconds(reports ...*perf.Report) (secs, minstrs float64) {
	m := perf.Xeon14(probeVCPUs)
	for _, rep := range reports {
		if rep == nil {
			continue
		}
		secs += m.Seconds(rep)
		minstrs += float64(rep.Total().Instrs) / 1e6
	}
	return secs, minstrs
}
