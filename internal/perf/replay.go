package perf

import "sync"

// A batch is a run of event words in stream order. Only the events
// whose outcome a cache or the predictor decides are in it; everything
// else the front counts directly. The top two bits of a word tag it.
const (
	tagShift = 62
	evTags   = uint64(3) << tagShift
	// evAccess: a load or store of the address in the other bits.
	evAccess = uint64(0) << tagShift
	// evRange: a new line of a LoadRange, whose LLC misses count as
	// prefetched.
	evRange = uint64(1) << tagShift
	// evBranch: site<<1 | taken. The predictor indexes with the site's
	// low PredictorBits (at most 24) only, so the bits the shift and
	// the tag drop are never read.
	evBranch = uint64(2) << tagShift
	// evEscape: the next word is an address whose top bits collide with
	// the tags; bit 0 is the range bit.
	evEscape = uint64(3) << tagShift

	// batchLen is a batch's capacity in words: 64 KiB, long enough that
	// a hand-off is rare next to the replay it starts.
	batchLen = 8192
	// maxQueued bounds the full batches waiting for a root probe's
	// helper; a front that far ahead waits for it.
	maxQueued = 4
	// maxFree bounds the buffers kept for reuse: a root probe has up
	// to maxQueued+2 in flight and a parallel region's shards one each,
	// so this covers two probes working at once.
	maxFree = 32
)

// simulator is the probe's simulated machine — the L1, the predictor,
// the last-level models — and the outcomes they produced since the
// probe last folded them in. One goroutine at a time replays into it:
// the probe's own, or, for a root probe, a helper it hands full
// batches to.
type simulator struct {
	l1  *Cache
	bp  *BranchPredictor
	llc []llcSim

	// The outcomes sit on cache lines of their own: the helper writes
	// them as it replays while the front writes the probe's counters.
	_ [64]byte
	c Counters // L1Hits, L1Misses and BranchMisses
	_ [64]byte

	mu     sync.Mutex
	cond   sync.Cond // broadcast when the queue shrinks and when the helper exits
	queue  [maxQueued][]uint64
	queued int
	busy   bool // a helper is running; the front keeps off the machine
}

type llcSim struct {
	cache *Cache
	c     Counters // LLCHits, LLCMisses and LLCPrefetched
}

func newSimulator(l1 *Cache, bp *BranchPredictor) *simulator {
	s := &simulator{l1: l1, bp: bp}
	s.cond.L = &s.mu
	return s
}

// replay simulates a batch in stream order, the one code path every
// simulated outcome comes from: each access goes through the L1 and, on
// a miss, through every last-level model; each branch through the
// predictor.
func (s *simulator) replay(ev []uint64) {
	l1, bp := s.l1, s.bp
	var hits, branchMisses uint64
	for i := 0; i < len(ev); i++ {
		w := ev[i]
		// An evAccess or evRange word: the address, and the range bit.
		addr, prefetch := w&^evRange, w>>tagShift
		switch {
		case w >= evEscape:
			i++
			addr, prefetch = ev[i], w&1
		case w >= evBranch:
			if !bp.Record(w>>1, w&1 != 0) {
				branchMisses++
			}
			continue
		}
		if key, base, hit := l1.mru(addr); hit || l1.walk(key, base) {
			hits++
		} else {
			s.l1Miss(addr, prefetch)
		}
	}
	s.c.L1Hits += hits
	s.c.BranchMisses += branchMisses
}

// l1Miss books an L1 miss and presents it to every last-level model;
// prefetch is 1 if a stride prefetcher would cover a miss there.
func (s *simulator) l1Miss(addr, prefetch uint64) {
	s.c.L1Misses++
	for i := range s.llc {
		m := &s.llc[i]
		if m.cache.Access(addr) {
			m.c.LLCHits++
		} else {
			m.c.LLCMisses++
			m.c.LLCPrefetched += prefetch
		}
	}
}

// submit queues a full batch for the helper, starting one if none is
// running, after waiting while maxQueued batches are queued.
func (s *simulator) submit(ev []uint64) {
	s.mu.Lock()
	for s.queued == maxQueued {
		s.cond.Wait()
	}
	s.queue[s.queued] = ev
	s.queued++
	if !s.busy {
		s.busy = true
		go s.drain()
	}
	s.mu.Unlock()
}

// drain is the helper: it replays the queued batches in order and
// exits as soon as the queue is empty, so it never outlives the work it
// was handed — a probe dropped between sync points leaves no goroutine.
func (s *simulator) drain() {
	s.mu.Lock()
	for s.queued > 0 {
		ev := s.queue[0]
		copy(s.queue[:], s.queue[1:s.queued])
		s.queued--
		s.queue[s.queued] = nil
		s.cond.Broadcast()
		s.mu.Unlock()
		s.replay(ev)
		putBatch(ev)
		s.mu.Lock()
	}
	s.busy = false
	s.cond.Broadcast()
	s.mu.Unlock()
}

// wait returns once no helper is running. The front then owns the
// machine until its next submit.
func (s *simulator) wait() {
	s.mu.Lock()
	for s.busy {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// free holds batch buffers for reuse by any probe. It is a bounded
// channel rather than a sync.Pool because a garbage collection empties
// a pool, and instrumented runs that collect between them would then
// allocate every batch afresh.
var free = make(chan []uint64, maxFree)

func getBatch() []uint64 {
	select {
	case ev := <-free:
		return ev
	default:
		return make([]uint64, 0, batchLen)
	}
}

func putBatch(ev []uint64) {
	select {
	case free <- ev[:0]:
	default:
	}
}
