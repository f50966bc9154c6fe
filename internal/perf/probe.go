package perf

// ProbeConfig sets the simulated memory hierarchy and predictor
// geometry for one profiled run. LLC capacity is all that varies with
// the VM configuration: cloud vCPUs carry a per-core slice (LLCBytes) of
// the last-level cache, which is how the paper explains placement's
// miss rate dropping from 45% at 1 vCPU to 34% at 8 vCPUs. One run can
// therefore profile several VM sizes: each entry of LLCSlices (nil
// means {1}) is a last-level model of that many slices behind the L1.
type ProbeConfig struct {
	L1Bytes       int
	L1Ways        int
	LLCBytes      int
	LLCSlices     []int
	LLCWays       int
	LineBytes     int
	PredictorBits uint
}

// DefaultProbeConfig mirrors one Xeon-class core: 32 KiB 8-way L1,
// 2.5 MiB 16-way LLC slice, 64-byte lines, 12-bit gshare.
func DefaultProbeConfig() ProbeConfig {
	return ProbeConfig{
		L1Bytes:       32 << 10,
		L1Ways:        8,
		LLCBytes:      2560 << 10,
		LLCWays:       16,
		LineBytes:     64,
		PredictorBits: 12,
	}
}

// WithLLCSlices returns the config modelling one VM per entry of n,
// each with that many per-core LLC slices (below 1 means 1).
func (pc ProbeConfig) WithLLCSlices(n ...int) ProbeConfig {
	pc.LLCSlices = n
	return pc
}

// Probe is the instrumentation sink the EDA engines report events to.
// A nil *Probe is valid and makes every method a no-op, so engines can
// run uninstrumented at full speed.
//
// Beyond raw addressed accesses (Load/Store/LoadRange), the probe
// offers two access idioms that model the architectural distinction
// the paper's Fig. 2b rests on:
//
//   - LoadHot/StoreHot reference a bounded per-region working window
//     (HotBytes), the pattern of synthesis's active-cone traffic and
//     STA's levelized sweeps — these are capacity-friendly and mostly
//     hit once warm;
//   - LoadCold references never-seen addresses (compulsory misses),
//     the pattern of the router's freshly allocated per-search state —
//     these miss every cache no matter its size, which is why routing's
//     miss rate does not improve with bigger VMs in the paper.
//
// The methods are the probe's front: they count every event and append
// the ones whose outcome a cache or the predictor decides to a batch
// (see replay.go). The simulator replays the batch in stream order, so
// every outcome is the one an inline simulation would give; the front
// folds the outcomes into its counters at the only places that read
// them — TakePhase, TakePhaseMeasured, Counters, Settle and
// MergeShards. Instrs reads a count the front keeps itself, so it
// folds nothing.
type Probe struct {
	sim *simulator
	// ev is the batch being filled, nil until the first simulated event
	// after a sync.
	ev []uint64
	// inline is set on shards: they replay full batches themselves, on
	// the worker that fills them, instead of handing them to a helper.
	inline    bool
	lineShift uint

	// HotBytes bounds each hot region's footprint. Zero means 32 KiB.
	HotBytes uint64

	cfg  ProbeConfig
	c    Counters // everything but the LLC outcomes, which live in llc
	mark Counters // snapshot at the last phase boundary
	// llc holds the outcomes of each last-level model of sim, counters
	// whose LLC fields alone are used, to be added to the probe's own.
	llc []llcCounters
	// others holds the LLC outcomes of models 1..K-1 per phase taken
	// (the Phase itself carries model 0's); see ReportFor.
	others []Counters

	// shards are the per-worker child probes handed out to parallel
	// regions (see Shards). Each keeps its own cache and predictor
	// state, persisting across regions so per-worker working windows
	// stay warm the way real per-core caches do.
	shards  []*Probe
	drained Counters // portion of c already absorbed by a parent
}

type llcCounters struct {
	c, mark, drained Counters
}

// NewProbe builds a probe with the given geometry. VM sizes whose LLC
// rounds to the same realised cache (see NewCache) share one model.
func NewProbe(cfg ProbeConfig) *Probe {
	l1 := NewCache(cfg.L1Bytes, cfg.L1Ways, cfg.LineBytes)
	p := &Probe{
		sim:       newSimulator(l1, NewBranchPredictor(cfg.PredictorBits)),
		lineShift: l1.lineShift,
		cfg:       cfg,
	}
	sizes := cfg.LLCSlices
	if len(sizes) == 0 {
		sizes = []int{1}
	}
	for _, n := range sizes {
		if p.model(n) < 0 {
			p.sim.llc = append(p.sim.llc, llcSim{cache: NewCache(cfg.LLCBytes*max(n, 1), cfg.LLCWays, cfg.LineBytes)})
			p.llc = append(p.llc, llcCounters{})
		}
	}
	return p
}

// model returns the index of the last-level model a VM with n LLC
// slices is simulated by, or -1.
func (p *Probe) model(n int) int {
	mask := uint64(cacheSets(p.cfg.LLCBytes*max(n, 1), p.cfg.LLCWays, p.cfg.LineBytes) - 1)
	for i := range p.sim.llc {
		if p.sim.llc[i].cache.setMask == mask {
			return i
		}
	}
	return -1
}

// Shards returns n per-worker child probes with the parent's geometry.
// Shards are created once and reused across parallel regions, so their
// cache and predictor state accumulates like a real worker's core
// state. The parent must not record events while its shards are in
// use; after the region, call MergeShards to fold the shard deltas
// back in. A nil probe has no shards: it returns nil.
func (p *Probe) Shards(n int) []*Probe {
	if p == nil {
		return nil
	}
	for len(p.shards) < n {
		s := NewProbe(p.cfg)
		s.HotBytes = p.HotBytes
		s.inline = true
		p.shards = append(p.shards, s)
	}
	return p.shards[:n]
}

// MergeShards absorbs the events each shard recorded since its last
// merge into p's counters, in shard order — a deterministic reduction
// independent of which OS thread ran which shard. A shard not yet
// settled is settled here, on the caller; par.ForProbe settles each on
// its own worker first, so this only adds counters.
func (p *Probe) MergeShards(shards []*Probe) {
	if p == nil {
		return
	}
	for _, s := range shards {
		if s == nil {
			continue
		}
		s.sync()
		delta := sub(s.c, s.drained)
		p.c.Add(&delta)
		s.drained = s.c
		for i := range s.llc {
			m := &s.llc[i]
			delta := sub(m.c, m.drained)
			p.llc[i].c.Add(&delta)
			m.drained = m.c
		}
	}
}

// Settle replays the batch in hand and folds the simulator's outcomes
// into the counters, so that reading or merging them later has nothing
// left to replay. A parallel region calls it on each shard from the
// worker that filled it, before the region's barrier.
func (p *Probe) Settle() {
	if p == nil {
		return
	}
	p.sync()
}

// sync brings the counters up to date with every event recorded so
// far: it waits for the helper to replay the batches handed to it,
// replays the batch in hand, returns its buffer and folds the
// simulator's outcomes in.
func (p *Probe) sync() {
	s := p.sim
	s.wait()
	if p.ev != nil {
		s.replay(p.ev)
		putBatch(p.ev)
		p.ev = nil
	}
	p.c.Add(&s.c)
	s.c = Counters{}
	for i := range p.llc {
		p.llc[i].c.Add(&s.llc[i].c)
		s.llc[i].c = Counters{}
	}
}

// push appends one event word to the batch, first handing a full batch
// on (or fetching a buffer, before the first event).
func (p *Probe) push(w uint64) {
	if len(p.ev) == cap(p.ev) {
		p.flush()
	}
	p.ev = append(p.ev, w)
}

// flush replays the batch in hand (shards) or hands it to the helper
// (root probes), and starts the next one; with no batch in hand it
// just fetches a buffer.
func (p *Probe) flush() {
	switch {
	case p.ev == nil:
	case p.inline:
		p.sim.replay(p.ev)
		p.ev = p.ev[:0]
		return
	default:
		p.sim.submit(p.ev)
	}
	p.ev = getBatch()
}

// access records a reference to addr; kind is evAccess or evRange.
func (p *Probe) access(addr, kind uint64) {
	if addr >= evRange {
		p.accessEscaped(addr, kind)
		return
	}
	p.push(addr | kind)
}

// accessEscaped records a reference to an address whose top bits are
// taken by the event tags: an evEscape word carrying the range bit,
// then the address itself, both in one batch.
func (p *Probe) accessEscaped(addr, kind uint64) {
	if cap(p.ev)-len(p.ev) < 2 {
		p.flush()
	}
	p.ev = append(p.ev, evEscape|kind>>tagShift, addr)
}

func (p *Probe) hotAddr(region int, idx uint64) uint64 {
	hot := p.HotBytes
	if hot == 0 {
		hot = 32 << 10
	}
	const regionStride = uint64(1) << 34
	return uint64(region+1)*regionStride + (idx*16)%hot
}

// LoadHot records a load within the bounded hot window of a region.
func (p *Probe) LoadHot(region int, idx uint64) {
	if p == nil {
		return
	}
	p.Load(p.hotAddr(region, idx))
}

// StoreHot records a store within the bounded hot window of a region.
func (p *Probe) StoreHot(region int, idx uint64) {
	if p == nil {
		return
	}
	p.Store(p.hotAddr(region, idx))
}

// LoadCold records n loads of never-before-seen lines: compulsory
// misses in every cache level. The cache contents are not disturbed
// (streaming loads bypass with non-temporal semantics).
func (p *Probe) LoadCold(n int) {
	if p == nil || n <= 0 {
		return
	}
	p.c.Instrs += uint64(n)
	p.c.Loads += uint64(n)
	p.c.L1Misses += uint64(n)
	for i := range p.llc {
		p.llc[i].c.LLCMisses += uint64(n)
	}
}

// LoopBranches records n perfectly predicted branches — the loop
// back-edges that dominate branch counts in numeric kernels. They
// update the counters but skip the predictor simulation.
func (p *Probe) LoopBranches(n int) {
	if p == nil || n <= 0 {
		return
	}
	p.c.Instrs += uint64(n)
	p.c.Branches += uint64(n)
}

// Load records a data load from the synthetic address addr.
func (p *Probe) Load(addr uint64) {
	if p == nil {
		return
	}
	p.c.Instrs++
	p.c.Loads++
	p.access(addr, evAccess)
}

// Store records a data store to the synthetic address addr.
func (p *Probe) Store(addr uint64) {
	if p == nil {
		return
	}
	p.c.Instrs++
	p.c.Stores++
	p.access(addr, evAccess)
}

// LoadRange records a sequential sweep of n elements of elemSize bytes
// starting at addr, the access pattern of vector arithmetic. It is
// equivalent to n Load calls but simulates the cache once per touched
// line: consecutive elements on an already-referenced line are L1 hits
// by construction.
func (p *Probe) LoadRange(addr uint64, n, elemSize int) {
	if p == nil || n <= 0 {
		return
	}
	p.c.Instrs += uint64(n)
	p.c.Loads += uint64(n)
	lastLine := ^uint64(0)
	for i := 0; i < n; i++ {
		a := addr + uint64(i*elemSize)
		ln := a >> p.lineShift
		if ln == lastLine {
			p.c.L1Hits++
			continue
		}
		lastLine = ln
		p.access(a, evRange)
	}
}

// Branch records a conditional branch at the given site with the actual
// outcome.
func (p *Probe) Branch(site uint64, taken bool) {
	if p == nil {
		return
	}
	p.c.Instrs++
	p.c.Branches++
	w := evBranch | (site<<1)&^evTags
	if taken {
		w |= 1
	}
	p.push(w)
}

// FPScalar records n scalar floating-point operations.
func (p *Probe) FPScalar(n int) {
	if p == nil || n <= 0 {
		return
	}
	p.c.Instrs += uint64(n)
	p.c.FPScalar += uint64(n)
}

// FPVector records n vectorizable (AVX-eligible) floating-point
// operations.
func (p *Probe) FPVector(n int) {
	if p == nil || n <= 0 {
		return
	}
	p.c.Instrs += uint64(n)
	p.c.FPVector += uint64(n)
}

// Ops records n generic integer/ALU instructions.
func (p *Probe) Ops(n int) {
	if p == nil || n <= 0 {
		return
	}
	p.c.Instrs += uint64(n)
}

// Instrs returns the instructions retired since construction. The
// front counts them itself and MergeShards folds in the shards' share,
// so unlike Counters it neither waits for the simulator nor replays
// the batch in hand.
func (p *Probe) Instrs() uint64 {
	if p == nil {
		return 0
	}
	return p.c.Instrs
}

// Counters returns the accumulated counts since construction, with
// the first modelled VM's LLC outcomes.
func (p *Probe) Counters() Counters {
	if p == nil {
		return Counters{}
	}
	p.sync()
	c := p.c
	c.Add(&p.llc[0].c)
	return c
}

// TakePhase returns a Phase holding the events recorded since the last
// TakePhase (or since construction) and advances the phase boundary.
// Its LLC outcomes are the first modelled VM's; see ReportFor.
func (p *Probe) TakePhase(name string, parallelFraction float64, chunks int) Phase {
	if p == nil {
		return Phase{Name: name, ParallelFraction: parallelFraction, Chunks: chunks}
	}
	p.sync()
	delta := sub(p.c, p.mark)
	p.mark = p.c
	for i := range p.llc {
		m := &p.llc[i]
		d := sub(m.c, m.mark)
		m.mark = m.c
		if i == 0 {
			delta.Add(&d)
		} else {
			p.others = append(p.others, d)
		}
	}
	if chunks < 1 {
		chunks = 1
	}
	if parallelFraction < 0 {
		parallelFraction = 0
	}
	if parallelFraction > 1 {
		parallelFraction = 1
	}
	return Phase{Name: name, C: delta, ParallelFraction: parallelFraction, Chunks: chunks}
}

// TakePhaseMeasured is TakePhase with the parallel fraction *measured*
// instead of modeled: parallelInstrs is the number of instructions the
// caller recorded inside parallel regions (typically the delta of
// Instrs across a par.ForProbe region, whose shard counters are merged
// back before the region returns), and the fraction is its
// share of everything retired since the last phase boundary. Callers
// with genuinely parallel kernels use this so the machine model's
// Amdahl scaling rests on the code's real serial/parallel split —
// partition rebuilds and cut sweeps scale, merges and sweeps do not —
// rather than on a hand-tuned constant. parallelInstrs is clamped to
// the recorded delta, so a nil probe yields a zero-counter phase with
// fraction 0.
func (p *Probe) TakePhaseMeasured(name string, parallelInstrs uint64, chunks int) Phase {
	if p == nil {
		return p.TakePhase(name, 0, chunks)
	}
	total := p.c.Instrs - p.mark.Instrs
	if parallelInstrs > total {
		parallelInstrs = total
	}
	frac := 0.0
	if total > 0 {
		frac = float64(parallelInstrs) / float64(total)
	}
	return p.TakePhase(name, frac, chunks)
}

// ReportFor returns the report the run produces on a VM with n LLC
// slices, one of cfg.LLCSlices: base — whose phases must be the phases
// taken from p, in order — with that VM's LLC outcomes in every phase.
// Nothing else a run records depends on the VM size.
func (p *Probe) ReportFor(base *Report, n int) *Report {
	m, k := p.model(n), len(p.llc)-1
	if m < 0 || len(base.Phases)*k != len(p.others) {
		panic("perf: ReportFor needs a modelled VM size and the report of this probe's phases")
	}
	out := &Report{Job: base.Job, Phases: append([]Phase(nil), base.Phases...)}
	for j := 0; m > 0 && j < len(out.Phases); j++ {
		c, d := &out.Phases[j].C, p.others[j*k+m-1]
		c.LLCHits, c.LLCMisses, c.LLCPrefetched = d.LLCHits, d.LLCMisses, d.LLCPrefetched
	}
	return out
}

func sub(a, b Counters) Counters {
	return Counters{
		Instrs:        a.Instrs - b.Instrs,
		Branches:      a.Branches - b.Branches,
		BranchMisses:  a.BranchMisses - b.BranchMisses,
		Loads:         a.Loads - b.Loads,
		Stores:        a.Stores - b.Stores,
		L1Hits:        a.L1Hits - b.L1Hits,
		L1Misses:      a.L1Misses - b.L1Misses,
		LLCHits:       a.LLCHits - b.LLCHits,
		LLCMisses:     a.LLCMisses - b.LLCMisses,
		LLCPrefetched: a.LLCPrefetched - b.LLCPrefetched,
		FPScalar:      a.FPScalar - b.FPScalar,
		FPVector:      a.FPVector - b.FPVector,
	}
}
