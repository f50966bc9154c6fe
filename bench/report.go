package main

import (
	"fmt"
	"slices"
	"time"
)

// report is what results.json and trace-summary.json hold.
type report struct {
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Traced     bool             `json:"traced"`
	GoVersion  string           `json:"go_version"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Workloads  []workloadReport `json:"workloads"`
}

// metricValue is one metric's value; an end-to-end metric also carries
// the per-round (for setup_s, per-repetition) values and their spread.
// The value is taken from these, except a timing's, which takes every
// item or op at its best in any round and so is at least as good as the
// best round's.
type metricValue struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Rounds []float64 `json:"rounds,omitempty"`
	Spread float64   `json:"spread,omitempty"`
}

type workloadReport struct {
	Name string `json:"name"`
	// Unit is what throughput counts per second.
	Unit   string `json:"unit"`
	Rounds int    `json:"rounds"`
	// Attempted and Failed count ops and the requests beside them;
	// CheckFailures counts failed correctness checks, Checks lists them.
	Attempted     int      `json:"attempted"`
	Failed        int      `json:"failed"`
	CheckFailures int      `json:"check_failures"`
	Checks        []string `json:"checks,omitempty"`
	// SimDigest hashes every simulated output of one round. It and the
	// counters are the same in every round, or a check has failed.
	SimDigest string                 `json:"sim_digest"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	Counters  map[string]float64     `json:"counters"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
}

const mib = 1 << 20

// report folds the workload's rounds into its metrics. End-to-end
// values come from the untraced rounds only, and every timing takes each
// piece of work at the best it did in any round: whatever else runs on
// the machine only ever slows it, so its best is its least disturbed.
// Throughput is a round's units over the sum of its items' lowest wall
// clocks; the latency percentiles are taken over the ops, each at its
// lowest latency. A round's p99 is a handful of samples, any of which a
// single pause displaces: between runs of the same code the best of six
// rounds' p99 spread by 11-14 % on serve-replay, third quartile minus
// first over the median, where the p99 of the ops' best spread by 4-5 %.
// Allocation, which repeats to four digits, is the lowest round's;
// setup_s is the median of the set-up's repetitions.
func (r *running) report(c config, tr *tracer) workloadReport {
	wr := workloadReport{
		Name: r.w.name, Unit: r.w.unit, Rounds: len(r.rounds),
		EndToEnd: map[string]metricValue{},
	}
	perRound := map[string][]float64{}
	var untraced, traced usage
	var tracedCovered float64
	var untracedWall, tracedWall []float64
	var peak uint64
	// The lowest wall clock each item and the lowest latency each op had in
	// any untraced round.
	var itemBest, opBest []time.Duration
	first := r.rounds[0]
	for n, rs := range r.rounds {
		wr.Attempted += rs.attempted
		wr.Failed += rs.failed
		wr.Checks = append(wr.Checks, rs.checks...)
		if rs.digest != first.digest {
			wr.Checks = append(wr.Checks, fmt.Sprintf("round %d: sim_digest %016x differs from round 0's %016x", n, rs.digest, first.digest))
		}
		peak = max(peak, rs.peakHeap)
		if rs.traced {
			traced.add(rs.use)
			tracedCovered += rs.covered.Seconds()
			tracedWall = append(tracedWall, rs.use.wall.Seconds())
			continue
		}
		untraced.add(rs.use)
		untracedWall = append(untracedWall, rs.use.wall.Seconds())
		for k, v := range first.counters {
			if rs.counters[k] != v {
				wr.Checks = append(wr.Checks, fmt.Sprintf("round %d: counter %s is %v, round 0 had %v", n, k, rs.counters[k], v))
			}
		}
		itemBest = lowest(itemBest, rs.itemWall)
		opBest = lowest(opBest, rs.lat)
		perRound["throughput"] = append(perRound["throughput"], rs.units/rs.use.wall.Seconds())
		perRound["op_p50_ms"] = append(perRound["op_p50_ms"], durationPercentile(rs.lat, 50))
		perRound["op_p99_ms"] = append(perRound["op_p99_ms"], durationPercentile(rs.lat, 99))
		perRound["alloc_mib_per_op"] = append(perRound["alloc_mib_per_op"], float64(rs.use.alloc)/mib/float64(max(len(rs.lat), 1)))
	}
	wr.CheckFailures = len(wr.Checks)
	wr.SimDigest = fmt.Sprintf("%016x", first.digest)
	wr.Counters = first.counters
	for _, def := range endToEnd {
		values := perRound[def.Name]
		value := best(values, def.Better)
		switch def.Name {
		case "throughput":
			var wall time.Duration
			for _, d := range itemBest {
				wall += d
			}
			value = first.units / wall.Seconds()
		case "op_p50_ms":
			value = durationPercentile(opBest, 50)
		case "op_p99_ms":
			value = durationPercentile(opBest, 99)
		case "setup_s":
			values = r.setupS
			value = median(values)
		}
		wr.EndToEnd[def.Name] = metricValue{Value: value, Unit: def.Unit, Rounds: values, Spread: spread(values)}
	}
	if !c.traced {
		return wr
	}

	// Span metrics are per traced round, so that they do not grow with
	// the number of rounds a run had time for; the spans of set-up, the
	// oracle and the planner probe happen once and are totals.
	layer := map[string]float64{}
	inRounds, outside := summarize(tr.spans, r.w.name)
	for name, t := range inRounds {
		layer[name+".n"] = t.N / float64(len(tracedWall))
		layer[name+".self_s"] = t.SelfS / float64(len(tracedWall))
	}
	for name, t := range outside {
		layer[name+".n"] += t.N
		layer[name+".self_s"] += t.SelfS
	}
	for k, v := range first.counters {
		layer[k] = v
	}
	for k, v := range r.extra {
		layer[k] = v
	}
	if v := layer["serve.replans"]; v > 0 {
		layer["serve.adopt_share"] = layer["serve.adopted"] / v
	}
	if v := layer["cache.hits"] + layer["cache.misses"]; v > 0 {
		layer["cache.hit_rate"] = layer["cache.hits"] / v
	}
	all := untraced
	all.add(traced)
	layer["par.busy_cores"] = all.cpu.Seconds() / all.wall.Seconds()
	layer["perf.peak_heap_mib"] = float64(peak) / mib
	layer["perf.gc_cycles"] = float64(all.gcCycles) / float64(len(r.rounds))
	layer["perf.gc_pause_ms"] = all.gcPause.Seconds() * 1e3 / float64(len(r.rounds))
	if u := median(untracedWall); u > 0 && len(tracedWall) > 0 {
		layer["bench.trace_overhead_pct"] = 100 * (median(tracedWall)/u - 1)
	}
	if w := traced.wall.Seconds(); w > 0 {
		layer["bench.unattributed_pct"] = 100 * (1 - tracedCovered/w)
	}
	wr.PerLayer = map[string]metricValue{}
	for _, def := range perLayer() {
		wr.PerLayer[def.Name] = metricValue{Value: layer[def.Name], Unit: def.Unit}
	}
	return wr
}

// lowest folds one round's durations into the lowest seen at each index.
func lowest(best, round []time.Duration) []time.Duration {
	if best == nil {
		return slices.Clone(round)
	}
	for i := range min(len(best), len(round)) {
		best[i] = min(best[i], round[i])
	}
	return best
}

// resultLine is the object a driver reads from the last line of the
// output: the end-to-end metrics of an untraced run, the per-layer
// metrics of a traced one.
func (wr workloadReport) resultLine(traced bool) map[string]any {
	metrics := map[string]any{}
	src := wr.EndToEnd
	if traced {
		src = wr.PerLayer
	}
	for name, m := range src {
		metrics[name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return map[string]any{
		"correct":   wr.CheckFailures == 0 && wr.Failed == 0,
		"attempted": wr.Attempted,
		"failed":    wr.Failed,
		"metrics":   metrics,
	}
}
