// Package sta is the static timing analysis engine: a forward
// levelized propagation of arrival times and slews through NLDM table
// lookups, a backward pass for required times, and slack/critical-path
// extraction.
//
// STA's characterization signature in the paper is moderate
// floating-point (AVX) usage from the library-table interpolations
// (Fig. 2c, second to placement), friendly cache behaviour from its
// topologically ordered sweeps, and mediocre multi-core scaling —
// parallelism exists only within a level of the timing graph.
package sta

import (
	"fmt"
	"math"

	"edacloud/internal/hash"
	"edacloud/internal/netlist"
	"edacloud/internal/par"
	"edacloud/internal/perf"
	"edacloud/internal/place"
)

// Options configures Analyze.
type Options struct {
	// ClockPeriodNs is the timing constraint; 0 means 1.0 ns.
	ClockPeriodNs float64
	// HoldTimeNs is the register hold requirement checked against
	// minimum-delay paths; 0 means 0.005 ns (comfortably under one
	// gate delay, as 14nm-class hold times are).
	HoldTimeNs float64
	// StageConfig supplies the shared execution knobs: Workers bounds
	// the worker pool for the level-parallel forward sweep and the
	// endpoint slack pass (0 means GOMAXPROCS; results are identical
	// for every value), and Probe receives performance events (nil
	// runs uninstrumented).
	par.StageConfig
}

// inputSlewNs is the slew at primary inputs and at the clock pin of
// every sequential launch; wireCapPerUm is the placement-aware net
// capacitance (pF/um), added only when a placement is supplied.
const (
	inputSlewNs  = 0.01
	wireCapPerUm = 0.0002
)

func (o Options) withDefaults() Options {
	if o.ClockPeriodNs == 0 {
		o.ClockPeriodNs = 1.0
	}
	if o.HoldTimeNs == 0 {
		o.HoldTimeNs = 0.005
	}
	return o
}

// PathStep is one cell hop on a timing path.
type PathStep struct {
	Cell    netlist.CellID
	Arrival float64
}

// Result holds the timing report.
type Result struct {
	// WNS is the worst negative slack (positive when timing is met).
	WNS float64
	// TNS is the total negative slack over violating endpoints.
	TNS float64
	// MaxArrival is the latest arrival time at any endpoint.
	MaxArrival float64
	// WHS is the worst hold slack over register endpoints (positive
	// when hold is met); +Inf when the design has no registers.
	WHS float64
	// HoldViolations counts register endpoints failing hold.
	HoldViolations int
	// CriticalPath lists the cells on the worst path, launch to capture.
	CriticalPath []PathStep
	// Endpoints is the number of timing endpoints (POs and DFF D pins).
	Endpoints int
	// LevelWidths histograms cells per level (drives the parallelism
	// profile: wider levels parallelize better).
	LevelWidths []int
}

// Fingerprint returns the timing report's canonical content hash. The
// word sequence is pinned by the flow package's hash goldens.
func (r *Result) Fingerprint() uint64 {
	h := hash.New()
	h.Word(1) // the presence marker the flow used to feed first; the pinned hashes include it
	h.F64(r.WNS)
	h.F64(r.TNS)
	h.F64(r.MaxArrival)
	h.F64(r.WHS)
	h.Int(r.HoldViolations)
	h.Int(r.Endpoints)
	for _, s := range r.CriticalPath {
		h.Int(int(s.Cell))
		h.F64(s.Arrival)
	}
	for _, w := range r.LevelWidths {
		h.Int(w)
	}
	return uint64(h)
}

// ApproxBytes estimates the report's in-memory footprint — the unit a
// byte-budgeted artifact cache accounts it in.
func (r *Result) ApproxBytes() int64 {
	return 96 + 16*int64(len(r.CriticalPath)) + 8*int64(len(r.LevelWidths))
}

// Hot-window probe regions: STA sweeps the timing graph in level
// order and repeatedly consults a small set of library tables — a
// bounded working set, hence the low cache-miss rates of Fig. 2b.
const (
	rgArrival = 0 // per-net arrival/slew records
	rgNetLoad = 1 // per-net electrical loads
	rgTable   = 2 // NLDM table pages
)

// Branch sites.
const (
	brMaxUpdate = uint64(0x31)
	brViolation = uint64(0x32)
)

// Analyze runs static timing on the netlist. pl may be nil for
// pre-placement (zero-wire-load) timing. The report carries two phases:
// the forward arrival propagation and the backward required/slack pass.
func Analyze(nl *netlist.Netlist, pl *place.Placement, opts Options) (*Result, *perf.Report, error) {
	opts = opts.withDefaults()
	probe := opts.Probe
	report := &perf.Report{Job: "sta"}

	levels, err := nl.Levels()
	if err != nil {
		return nil, nil, fmt.Errorf("sta: %w", err)
	}
	pool := par.Fixed(opts.Workers)

	// Per-net electrical load: pin caps plus optional wire estimate.
	load := make([]float64, nl.NumNets())
	for id := range nl.Nets {
		var c float64
		for _, s := range nl.Sinks(netlist.NetID(id)) {
			c += nl.Cells[s.Cell].Type.InputCap(int(s.Pin))
			probe.LoadHot(rgNetLoad, uint64(s.Cell))
			probe.LoopBranches(2)
		}
		c += float64(float64(len(nl.NetPOs(netlist.NetID(id)))) * 0.002) // output pad load
		load[id] = c
	}
	if pl != nil {
		addWireLoads(nl, pl, load, wireCapPerUm, probe)
	}

	// Forward pass: arrival (max-delay) and earliest arrival
	// (min-delay, for hold) plus slew per net.
	arrival := make([]float64, nl.NumNets())
	minArrival := make([]float64, nl.NumNets())
	slew := make([]float64, nl.NumNets())
	for i := range slew {
		slew[i] = inputSlewNs
	}
	// fromCell[net] = driving cell on the critical (max-arrival) fanin.
	fromPin := make([]int32, nl.NumNets())
	for i := range fromPin {
		fromPin[i] = -1
	}

	// Per-shard NLDM table caches: table ids only synthesize probe
	// addresses, and each shard's id assignment is deterministic
	// because its cells arrive in a fixed order.
	tablesByShard := make([]*tableCache, par.ProbeShards)
	for i := range tablesByShard {
		tablesByShard[i] = newTableCache()
	}
	lookup := func(shard int, probe *perf.Probe, t nldmTable, s, l float64) float64 {
		if probe != nil {
			probe.LoadHot(rgTable, uint64(tablesByShard[shard].get(t))*16)
			probe.FPVector(8) // bilinear interpolation: vectorizable FMA work
		}
		return t.Lookup(s, l)
	}

	// processCell computes the arrival/slew records of one cell. Cells
	// of one level never feed each other (sequential outputs are
	// level-0 sources processed in the seq bucket before any
	// combinational level), so a level's cells run concurrently; each
	// writes only its own output net's records.
	processCell := func(id int, shard int, probe *perf.Probe) {
		c := &nl.Cells[id]
		if c.Out == netlist.NoNet {
			return
		}
		probe.LoadHot(rgArrival, uint64(id))
		// Graph traversal, pin iteration and max-reduction bookkeeping.
		probe.Ops(45)
		probe.LoopBranches(20)
		outLoad := load[c.Out]
		var bestArr, bestSlew float64
		bestPin := int32(-1)
		minArr := math.Inf(1)
		if c.Type.Seq {
			// Launch from the clock edge through the CK->Q arc.
			arc := c.Type.Arcs[0]
			bestArr = lookup(shard, probe, &arc.Delay, inputSlewNs, outLoad)
			bestSlew = lookup(shard, probe, &arc.Slew, inputSlewNs, outLoad)
			bestPin = 1
			minArr = bestArr
		} else {
			for pin, netID := range nl.Ins(netlist.CellID(id)) {
				if netID == netlist.NoNet {
					continue
				}
				arc := c.Type.ArcFrom(c.Type.Inputs[pin].Name)
				if arc == nil {
					continue
				}
				inArr := arrival[netID]
				inSlew := slew[netID]
				d := lookup(shard, probe, &arc.Delay, inSlew, outLoad)
				cand := inArr + d
				better := cand > bestArr || bestPin < 0
				probe.Branch(brMaxUpdate, better)
				if better {
					bestArr = cand
					bestSlew = lookup(shard, probe, &arc.Slew, inSlew, outLoad)
					bestPin = int32(pin)
				}
				if early := minArrival[netID] + d; early < minArr {
					minArr = early
				}
			}
		}
		if math.IsInf(minArr, 1) {
			minArr = 0
		}
		minArrival[c.Out] = minArr
		arrival[c.Out] = bestArr
		slew[c.Out] = bestSlew
		fromPin[c.Out] = bestPin
		probe.StoreHot(rgArrival, uint64(c.Out))
	}

	// Levelized sweep: bucket 0 holds sequential cells (launch-edge
	// sources), bucket l+1 the combinational cells at level l; within
	// a bucket, ascending cell id. This is exactly the parallelism the
	// paper ascribes to STA — concurrency bounded by each level's
	// width.
	for _, bucket := range levelBuckets(nl, levels) {
		if len(bucket) == 0 {
			continue
		}
		pool.ForProbe(probe, len(bucket), staGrain, func(lo, hi, shard, _ int, probe *perf.Probe) {
			for _, id := range bucket[lo:hi] {
				processCell(int(id), shard, probe)
			}
		})
	}
	report.AddPhase(probe.TakePhase("arrival", staParallelFraction(levels), maxLevelWidth(levels)))

	// Backward pass: endpoint slacks. Endpoints are POs and DFF D pins.
	res := &Result{WNS: math.Inf(1)}
	type endpoint struct {
		net netlist.NetID
		reg bool // a DFF's D pin, else a primary output
	}
	var endpoints []endpoint
	for _, po := range nl.POs {
		endpoints = append(endpoints, endpoint{po.Net, false})
	}
	for id := range nl.Cells {
		ins := nl.Ins(netlist.CellID(id))
		if nl.Cells[id].Type.Seq && len(ins) > 0 && ins[0] != netlist.NoNet {
			endpoints = append(endpoints, endpoint{ins[0], true})
		}
	}
	res.Endpoints = len(endpoints)

	// The endpoint sweep is embarrassingly parallel: each endpoint reads
	// its own arrival record and folds into a handful of scalars. Chunks
	// of the fixed epGrain accumulate into per-chunk partials which are
	// folded in ascending chunk order afterwards, whichever worker ran
	// which chunk. The chunk layout, the TNS summation
	// order (within-chunk left-to-right, then chunk-ordered fold), the
	// first-minimum WNS/worst-net tie-breaking and the probe's shard
	// assignment all depend only on the endpoint count, so the result —
	// floating point included — is identical for every worker count.
	res.WHS = math.Inf(1)
	worstNet := netlist.NoNet
	type epPartial struct {
		tns, wns, maxArr, whs float64
		worstNet              netlist.NetID
		holdViolations        int
	}
	partials := make([]epPartial, chunksOf(len(endpoints), epGrain))
	pool.ForProbe(probe, len(endpoints), epGrain, func(lo, hi, _, _ int, probe *perf.Probe) {
		part := epPartial{wns: math.Inf(1), whs: math.Inf(1), worstNet: netlist.NoNet}
		for _, ep := range endpoints[lo:hi] {
			probe.LoadHot(rgArrival, uint64(ep.net))
			probe.LoopBranches(4)
			arr := arrival[ep.net]
			slack := opts.ClockPeriodNs - arr
			violated := slack < 0
			probe.Branch(brViolation, violated)
			if violated {
				part.tns += slack
			}
			if slack < part.wns {
				part.wns = slack
				part.worstNet = ep.net
			}
			if arr > part.maxArr {
				part.maxArr = arr
			}
			// Hold: only register endpoints race the same clock edge.
			if ep.reg {
				hold := minArrival[ep.net] - opts.HoldTimeNs
				if hold < part.whs {
					part.whs = hold
				}
				if hold < 0 {
					part.holdViolations++
				}
				probe.FPScalar(2)
			}
			probe.FPScalar(2)
		}
		partials[lo/epGrain] = part
	})
	for _, part := range partials {
		res.TNS += part.tns
		if part.wns < res.WNS {
			res.WNS = part.wns
			worstNet = part.worstNet
		}
		if part.maxArr > res.MaxArrival {
			res.MaxArrival = part.maxArr
		}
		if part.whs < res.WHS {
			res.WHS = part.whs
		}
		res.HoldViolations += part.holdViolations
	}
	if len(endpoints) == 0 {
		res.WNS = opts.ClockPeriodNs
	}

	// Critical path: walk the max-arrival fanins backward.
	for net := worstNet; net != netlist.NoNet; {
		d := nl.Nets[net].Driver
		if d == netlist.NoCell {
			break
		}
		res.CriticalPath = append(res.CriticalPath, PathStep{Cell: d, Arrival: arrival[net]})
		probe.LoadHot(rgArrival, uint64(net))
		c := &nl.Cells[d]
		if c.Type.Seq {
			break // launched from a register
		}
		ins := nl.Ins(d)
		pin := fromPin[net]
		if pin < 0 || int(pin) >= len(ins) {
			break
		}
		net = ins[pin]
	}
	reverse(res.CriticalPath)

	res.LevelWidths = levelWidths(levels)
	report.AddPhase(probe.TakePhase("required-slack", 0.5, max(len(endpoints)/16, 1)))
	return res, report, nil
}

// addWireLoads adds HPWL-proportional wire capacitance per net.
func addWireLoads(nl *netlist.Netlist, pl *place.Placement, load []float64, capPerUm float64, probe *perf.Probe) {
	for id := range nl.Nets {
		net := &nl.Nets[id]
		minX, maxX := math.Inf(1), math.Inf(-1)
		minY, maxY := math.Inf(1), math.Inf(-1)
		touch := func(x, y float64) {
			minX = math.Min(minX, x)
			maxX = math.Max(maxX, x)
			minY = math.Min(minY, y)
			maxY = math.Max(maxY, y)
		}
		switch {
		case net.Driver != netlist.NoCell:
			touch(pl.X[net.Driver], pl.Y[net.Driver])
		case net.DriverPI >= 0:
			touch(pl.PIx[net.DriverPI], pl.PIy[net.DriverPI])
		default:
			continue
		}
		n := 0
		for _, s := range nl.Sinks(netlist.NetID(id)) {
			touch(pl.X[s.Cell], pl.Y[s.Cell])
			probe.LoadHot(rgNetLoad, uint64(s.Cell))
			probe.LoopBranches(2)
			n++
		}
		for _, po := range nl.NetPOs(netlist.NetID(id)) {
			touch(pl.POx[po], pl.POy[po])
			n++
		}
		if n > 0 {
			load[id] += float64(((maxX - minX) + (maxY - minY)) * capPerUm)
			probe.FPVector(4)
		}
	}
}

// nldmTable is a library timing table.
type nldmTable interface{ Lookup(s, l float64) float64 }

// staGrain is the per-chunk cell count of the level-parallel sweep; a
// fixed constant keeps the probe-shard layout machine-independent.
const staGrain = 16

// epGrain is the per-chunk endpoint count of the parallel slack pass.
const epGrain = 32

// chunksOf mirrors par's chunk layout for sizing per-chunk partials.
func chunksOf(n, grain int) int { return (n + grain - 1) / grain }

// levelBuckets groups cells for the levelized sweep: bucket 0 holds
// sequential cells, bucket l+1 the combinational cells at level l.
func levelBuckets(nl *netlist.Netlist, levels []int32) [][]int32 {
	var maxLv int32 = -1
	for _, l := range levels {
		if l > maxLv {
			maxLv = l
		}
	}
	buckets := make([][]int32, maxLv+2)
	for id := range nl.Cells {
		if nl.Cells[id].Type.Seq {
			buckets[0] = append(buckets[0], int32(id))
		} else {
			buckets[levels[id]+1] = append(buckets[levels[id]+1], int32(id))
		}
	}
	return buckets
}

// tableCache assigns stable ids to timing tables for cache-address
// synthesis.
type tableCache struct {
	ids map[nldmTable]int
}

func newTableCache() *tableCache { return &tableCache{ids: map[nldmTable]int{}} }

func (tc *tableCache) get(t nldmTable) int {
	id, ok := tc.ids[t]
	if !ok {
		id = len(tc.ids)
		tc.ids[t] = id
	}
	return id
}

// staParallelFraction estimates the level-parallel share of the
// forward pass: wide timing graphs parallelize, deep narrow ones do
// not.
func staParallelFraction(levels []int32) float64 {
	widths := levelWidths(levels)
	if len(widths) == 0 {
		return 0.3
	}
	total := 0
	for _, w := range widths {
		total += w
	}
	avg := float64(total) / float64(len(widths))
	// Map average width to a fraction in [0.35, 0.7].
	f := 0.35 + float64(0.35*(avg/(avg+32)))
	return f
}

func levelWidths(levels []int32) []int {
	var max int32 = -1
	for _, l := range levels {
		if l > max {
			max = l
		}
	}
	if max < 0 {
		return nil
	}
	widths := make([]int, max+1)
	for _, l := range levels {
		widths[l]++
	}
	return widths
}

func maxLevelWidth(levels []int32) int {
	best := 1
	for _, w := range levelWidths(levels) {
		if w > best {
			best = w
		}
	}
	return best
}

func reverse(p []PathStep) {
	for i, j := 0, len(p)-1; i < j; i, j = i+1, j-1 {
		p[i], p[j] = p[j], p[i]
	}
}
