// Package par is the shared parallel execution engine of the EDA
// flows. The source paper's central observation is that EDA jobs have
// heterogeneous, stage-dependent parallel speedup; this package is the
// substrate that lets every hot kernel — synthesis cut enumeration,
// STA level sweeps, placement matrix-vector products, GCN matrix
// kernels and characterization fan-out — actually use the machine's
// cores while keeping results byte-identical to a serial run.
//
// # Pools
//
// A Pool owns a fixed set of long-lived worker goroutines and is
// reusable across any number of parallel regions, so per-call
// goroutine churn is zero. Fixed(n) returns the process-wide cached
// pool of exactly n workers (n <= 0 means GOMAXPROCS); every engine
// resolves its Workers option through it.
// Pools never block the caller on a saturated pool: when every worker
// is busy (nested parallelism), the submitting goroutine simply keeps
// the work and runs it inline, so parallel regions degrade gracefully
// to serial execution instead of deadlocking.
//
// # Determinism
//
// Every scheduling decision that could affect an observable result is
// a pure function of the problem shape, never of the worker count or
// OS scheduling:
//
//   - For splits [0,n) into fixed chunks of `grain` consecutive
//     indices. Chunks are claimed dynamically, but each output index
//     is written by exactly one chunk, so data results are identical
//     for any worker count.
//   - ForProbe statically assigns chunk c to shard c%S where
//     S = min(ProbeShards, chunks) depends only on the iteration
//     shape. Each shard's chunks run in ascending order on one
//     goroutine with that shard's perf.Probe, and shard counters are
//     merged into the parent probe in shard order afterwards. The
//     simulated performance counters are therefore the same on a
//     1-core laptop and a 64-core server.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"

	"edacloud/internal/perf"
)

// ProbeShards is the fixed fan-out of instrumented parallel regions.
// It is a constant (not GOMAXPROCS) so that simulated performance
// counters are machine-independent: a probed region always splits its
// work across the same shard set, whatever the real core count.
const ProbeShards = 8

// Pool is a reusable bounded worker pool. The zero value is not
// usable; obtain one from Fixed. A nil *Pool is valid everywhere and
// runs serially.
type Pool struct {
	workers int
	tasks   chan *region
	mu      sync.Mutex
	free    []*region // finished regions' state, for the next ones
}

// region is one parallel region: chunk c belongs to shard c % shards,
// and its goroutines claim whole shards (For's are one chunk each).
type region struct {
	n, grain, chunks, shards int
	fn                       func(start, end int)
	probeFn                  func(start, end, shard, worker int, probe *perf.Probe)
	probes                   []*perf.Probe // nil with a nil probe
	next, joined             atomic.Int64
	wg                       sync.WaitGroup
}

func (p *Pool) work() {
	for r := range p.tasks {
		r.run()
		r.wg.Done()
	}
}

// run claims shards until none is left, as the next worker index.
func (r *region) run() {
	worker := int(r.joined.Add(1)) - 1
	for s := int(r.next.Add(1)) - 1; s < r.shards; s = int(r.next.Add(1)) - 1 {
		var sp *perf.Probe
		if r.probes != nil {
			sp = r.probes[s]
		}
		for c := s; c < r.chunks; c += r.shards {
			if lo, hi := c*r.grain, min(c*r.grain+r.grain, r.n); r.fn != nil {
				r.fn(lo, hi)
			} else {
				r.probeFn(lo, hi, s, worker, sp)
			}
		}
		// The shard's unfilled batch replays here, beside the other
		// shards, not serially in MergeShards after the barrier.
		sp.Settle()
	}
}

// Workers returns the pool's worker count (1 for a nil pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

var (
	poolsMu sync.Mutex
	pools   = map[int]*Pool{}
)

// Fixed returns the shared pool with exactly n workers (n <= 0 means
// GOMAXPROCS). Pools are created on first use and cached for the
// process lifetime, so engines can resolve a Workers option to a pool
// on every call without goroutine churn.
func Fixed(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	poolsMu.Lock()
	defer poolsMu.Unlock()
	p := pools[n]
	if p == nil {
		p = &Pool{workers: n, tasks: make(chan *region)}
		for i := 0; i < n; i++ {
			go p.work()
		}
		pools[n] = p
	}
	return p
}

func chunkCount(n, grain int) int { return (n + grain - 1) / grain }

// For runs fn over consecutive chunks [start, end) covering [0, n),
// each at most grain long (grain <= 0 picks one aimed at ~4 chunks
// per worker). Chunks are claimed dynamically; fn must only write
// state derived from its own index range. The calling goroutine
// participates in the work.
func (p *Pool) For(n, grain int, fn func(start, end int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = n/(p.Workers()*4) + 1
	}
	nchunks := chunkCount(n, grain)
	if p == nil || p.workers == 1 || nchunks == 1 {
		fn(0, n)
		return
	}
	p.run(&region{n: n, grain: grain, chunks: nchunks, shards: nchunks, fn: fn})
}

// run runs a region like `like` on the caller and the idle workers, up
// to min(Workers, shards), it can recruit without blocking, in a
// finished region's state (new when all are in use, or the pool nil).
func (p *Pool) run(like *region) {
	var r *region
	if p != nil {
		p.mu.Lock()
		if k := len(p.free); k > 0 {
			r, p.free = p.free[k-1], p.free[:k-1]
		}
		p.mu.Unlock()
	}
	if r == nil {
		r = new(region)
	}
	r.n, r.grain, r.chunks, r.shards = like.n, like.grain, like.chunks, like.shards
	r.fn, r.probeFn, r.probes = like.fn, like.probeFn, like.probes
	r.next.Store(0)
	r.joined.Store(0)
	for i := 0; i < min(p.Workers(), r.shards)-1; i++ {
		r.wg.Add(1)
		select {
		case p.tasks <- r:
			continue
		default:
			r.wg.Done()
		}
		break
	}
	r.run()
	r.wg.Wait()
	if p != nil {
		r.fn, r.probeFn, r.probes = nil, nil, nil
		p.mu.Lock()
		p.free = append(p.free, r)
		p.mu.Unlock()
	}
}

// ForProbe is For for instrumented kernels. It partitions [0, n) into
// chunks of exactly grain (grain <= 0 means 1) and statically assigns
// chunk c to shard c % S, S = min(ProbeShards, chunks) — a layout
// that depends only on the iteration shape. Shard s's chunks run in
// ascending order on a single goroutine, with probe.Shards(S)[s] (a
// per-worker probe with its own cache and predictor state, persistent
// across regions) passed to fn, and the same goroutine then settles the
// shard's simulation; afterwards the shard counters are merged into
// probe in shard order. Both data results and simulated counters are
// therefore identical for every pool size, including 1.
//
// fn receives the shard index and the index, below min(Workers,
// ProbeShards), of the goroutine running the shard (which varies), so
// callers can keep shard-local and per-goroutine scratch. With a nil
// probe the same static schedule runs with a nil shard probe.
func (p *Pool) ForProbe(probe *perf.Probe, n, grain int, fn func(start, end, shard, worker int, probe *perf.Probe)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = 1
	}
	nchunks := chunkCount(n, grain)
	shards := min(ProbeShards, nchunks)
	if shards == 1 {
		fn(0, n, 0, 0, probe)
		return
	}
	probes := probe.Shards(shards) // nil with a nil probe
	p.run(&region{n: n, grain: grain, chunks: nchunks, shards: shards, probeFn: fn, probes: probes})
	probe.MergeShards(probes)
}

// Map evaluates fn for every index in [0, n) on the pool and returns
// the results in index order.
func Map[T any](p *Pool, n int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	p.For(n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = fn(i)
		}
	})
	return out
}
