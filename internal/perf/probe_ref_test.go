package perf

// refProbe is the probe as it was before one run could feed several
// last-level models: one L1, one LLC of cfg.LLCBytes in total, the
// counters in one struct. It is the reference the K-model probe must
// match event for event at K = 1, and it reads LLCBytes as the whole
// cache the way ProbeConfig.WithLLCSlices(n) used to leave it.
type refProbe struct {
	l1  *Cache
	llc *Cache
	bp  *BranchPredictor

	HotBytes uint64

	cfg  ProbeConfig
	c    Counters
	mark Counters // snapshot at the last phase boundary

	shards  []*refProbe
	drained Counters // portion of c already absorbed by a parent
}

func newRefProbe(cfg ProbeConfig) *refProbe {
	return &refProbe{
		l1:  NewCache(cfg.L1Bytes, cfg.L1Ways, cfg.LineBytes),
		llc: NewCache(cfg.LLCBytes, cfg.LLCWays, cfg.LineBytes),
		bp:  NewBranchPredictor(cfg.PredictorBits),
		cfg: cfg,
	}
}

func (p *refProbe) Shards(n int) []*refProbe {
	if p == nil {
		return make([]*refProbe, n)
	}
	for len(p.shards) < n {
		s := newRefProbe(p.cfg)
		s.HotBytes = p.HotBytes
		p.shards = append(p.shards, s)
	}
	return p.shards[:n]
}

func (p *refProbe) MergeShards(shards []*refProbe) {
	if p == nil {
		return
	}
	for _, s := range shards {
		if s == nil {
			continue
		}
		delta := sub(s.c, s.drained)
		p.c.Add(&delta)
		s.drained = s.c
	}
}

func (p *refProbe) hotAddr(region int, idx uint64) uint64 {
	hot := p.HotBytes
	if hot == 0 {
		hot = 32 << 10
	}
	const regionStride = uint64(1) << 34
	return uint64(region+1)*regionStride + (idx*16)%hot
}

func (p *refProbe) LoadHot(region int, idx uint64) {
	if p == nil {
		return
	}
	p.Load(p.hotAddr(region, idx))
}

func (p *refProbe) StoreHot(region int, idx uint64) {
	if p == nil {
		return
	}
	p.Store(p.hotAddr(region, idx))
}

func (p *refProbe) LoadCold(n int) {
	if p == nil || n <= 0 {
		return
	}
	p.c.Instrs += uint64(n)
	p.c.Loads += uint64(n)
	p.c.L1Misses += uint64(n)
	p.c.LLCMisses += uint64(n)
}

func (p *refProbe) LoopBranches(n int) {
	if p == nil || n <= 0 {
		return
	}
	p.c.Instrs += uint64(n)
	p.c.Branches += uint64(n)
}

func (p *refProbe) Load(addr uint64) {
	if p == nil {
		return
	}
	p.c.Instrs++
	p.c.Loads++
	if p.l1.Access(addr) {
		p.c.L1Hits++
		return
	}
	p.c.L1Misses++
	if p.llc.Access(addr) {
		p.c.LLCHits++
	} else {
		p.c.LLCMisses++
	}
}

func (p *refProbe) Store(addr uint64) {
	if p == nil {
		return
	}
	p.c.Instrs++
	p.c.Stores++
	if p.l1.Access(addr) {
		p.c.L1Hits++
		return
	}
	p.c.L1Misses++
	if p.llc.Access(addr) {
		p.c.LLCHits++
	} else {
		p.c.LLCMisses++
	}
}

func (p *refProbe) LoadRange(addr uint64, n, elemSize int) {
	if p == nil || n <= 0 {
		return
	}
	p.c.Instrs += uint64(n)
	p.c.Loads += uint64(n)
	lastLine := ^uint64(0)
	for i := 0; i < n; i++ {
		a := addr + uint64(i*elemSize)
		ln := a >> p.l1.lineShift
		if ln == lastLine {
			p.c.L1Hits++
			continue
		}
		lastLine = ln
		if p.l1.Access(a) {
			p.c.L1Hits++
			continue
		}
		p.c.L1Misses++
		if p.llc.Access(a) {
			p.c.LLCHits++
		} else {
			p.c.LLCMisses++
			p.c.LLCPrefetched++
		}
	}
}

func (p *refProbe) Branch(site uint64, taken bool) {
	if p == nil {
		return
	}
	p.c.Instrs++
	p.c.Branches++
	if !p.bp.Record(site, taken) {
		p.c.BranchMisses++
	}
}

func (p *refProbe) FPScalar(n int) {
	if p == nil || n <= 0 {
		return
	}
	p.c.Instrs += uint64(n)
	p.c.FPScalar += uint64(n)
}

func (p *refProbe) FPVector(n int) {
	if p == nil || n <= 0 {
		return
	}
	p.c.Instrs += uint64(n)
	p.c.FPVector += uint64(n)
}

func (p *refProbe) Ops(n int) {
	if p == nil || n <= 0 {
		return
	}
	p.c.Instrs += uint64(n)
}

func (p *refProbe) Counters() Counters {
	if p == nil {
		return Counters{}
	}
	return p.c
}

func (p *refProbe) TakePhase(name string, parallelFraction float64, chunks int) Phase {
	if p == nil {
		return Phase{Name: name, ParallelFraction: parallelFraction, Chunks: chunks}
	}
	delta := sub(p.c, p.mark)
	p.mark = p.c
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

func (p *refProbe) TakePhaseMeasured(name string, parallelInstrs uint64, chunks int) Phase {
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
