package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// metricDef names one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd lists the gated metrics, measured with tracing off. The timings
// take every item and op at the best it did in any of the run's rounds
// (see running.report); setup_s is the median of the set-up's repetitions.
var endToEnd = []metricDef{
	{"throughput", "units/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p99_ms", "ms", "lower"},
	{"alloc_mib_per_op", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

// spanNames lists every span the traced run can open; each yields an
// <name>.n and an <name>.self_s metric.
var spanNames = []string{
	// flow-full ops.
	"flow.pipeline", "synth.synthesize", "place.place", "route.route", "sta.analyze",
	// synth-large ops.
	"aig.read_ascii", "synth.pass.balance", "synth.pass.rewrite", "synth.pass.refactor", "synth.map", "aig.write_ascii",
	// serve-replay ops.
	"serve.new_server", "serve.http.submit", "serve.http.status", "serve.http.drain", "serve.http.report",
	// explore-dse ops.
	"core.train_predictor", "dse.explore",
	// Set-up and oracles.
	"designs.eval_design", "designs.benchmark", "aig.partition_cones", "core.characterize", "core.build_problem",
	"serve.trace_gen", "serve.replay_direct", "core.build_dataset", "aig.sim_equiv",
	// The planner probe.
	"mckp.batch_optimize", "mckp.batch_optimize_state", "flow.forecast", "cloud.fleet_snapshot_release",
}

// exactCounters are work counts read from public results, summed over
// the ops of one round. They repeat exactly from run to run: a change in
// one means the program's behaviour changed, not its speed.
var exactCounters = []metricDef{
	{"synth.ands_in", "count", "lower"},
	{"synth.ands_out", "count", "lower"},
	{"synth.cells", "count", "lower"},
	{"place.hpwl_um", "um", "lower"},
	{"route.wirelength", "count", "lower"},
	{"route.overflow", "count", "lower"},
	{"route.rrr_iters", "count", "lower"},
	{"sta.wns_ns", "ns", "higher"},
	{"flow.sim_s", "s", "lower"},
	{"perf.sim_minstrs", "Minstr", "lower"},
	{"aig.bytes_read", "B", "lower"},
	{"aig.partitions", "count", "higher"},
	{"serve.submits", "count", "higher"},
	{"serve.admitted", "count", "higher"},
	{"serve.rejected", "count", "lower"},
	{"serve.replans", "count", "lower"},
	{"serve.adopted", "count", "higher"},
	{"serve.released_leases", "count", "lower"},
	{"serve.sim_cost_usd", "usd", "lower"},
	{"gcn.accuracy_pct", "%", "higher"},
	{"gcn.train_graphs", "count", "higher"},
	{"dse.sampled", "count", "higher"},
	{"dse.evaluated", "count", "higher"},
	{"dse.front_size", "count", "higher"},
	{"dse.sim_spend_usd", "usd", "lower"},
	{"cache.hits", "count", "higher"},
	{"cache.misses", "count", "lower"},
	{"cache.bytes_live", "B", "lower"},
}

// derivedMetrics are ratios of exact counters and the host-side values
// of the traced run, which are as noisy as any timing.
var derivedMetrics = []metricDef{
	{"serve.adopt_share", "share", "higher"},
	{"cache.hit_rate", "share", "higher"},
	{"serve.http_overhead_us", "us", "lower"},
	{"par.busy_cores", "cores", "higher"},
	{"perf.peak_heap_mib", "MiB", "lower"},
	{"perf.gc_cycles", "count", "lower"},
	{"perf.gc_pause_ms", "ms", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
	{"bench.unattributed_pct", "%", "lower"},
}

// perLayer lists every metric of the traced run in a fixed order.
func perLayer() []metricDef {
	var out []metricDef
	for _, s := range spanNames {
		out = append(out, metricDef{s + ".n", "count", "lower"}, metricDef{s + ".self_s", "s", "lower"})
	}
	out = append(out, exactCounters...)
	return append(out, derivedMetrics...)
}

// median returns the middle of the values, the mean of the middle two
// for an even count, and 0 for none.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// best returns the largest of the values when higher is better, the
// smallest otherwise, and 0 for none.
func best(v []float64, better string) float64 {
	if len(v) == 0 {
		return 0
	}
	if better == "higher" {
		return slices.Max(v)
	}
	return slices.Min(v)
}

// spread is the range of the values as a share of their median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	return (slices.Max(v) - slices.Min(v)) / math.Abs(m)
}

// durationPercentile returns the nearest-rank p-th percentile of the
// samples in milliseconds, 0 for none.
func durationPercentile(d []time.Duration, p float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return float64(s[max(rank, 1)-1]) / float64(time.Millisecond)
}
