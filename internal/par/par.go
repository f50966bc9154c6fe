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
	tasks   chan func()
}

func (p *Pool) work() {
	for fn := range p.tasks {
		fn()
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
		p = &Pool{workers: n, tasks: make(chan func())}
		for i := 0; i < n; i++ {
			go p.work()
		}
		pools[n] = p
	}
	return p
}

// trySubmit hands fn to an idle worker, returning false when every
// worker is busy; the caller then keeps the work. Never blocks.
func (p *Pool) trySubmit(fn func()) bool {
	select {
	case p.tasks <- fn:
		return true
	default:
		return false
	}
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
	var next atomic.Int64
	body := func() {
		for {
			c := int(next.Add(1)) - 1
			if c >= nchunks {
				return
			}
			lo := c * grain
			hi := lo + grain
			if hi > n {
				hi = n
			}
			fn(lo, hi)
		}
	}
	p.runShared(body, min(p.workers, nchunks))
}

// runShared runs body on up to want goroutines: the caller plus as
// many idle pool workers as it can recruit without blocking.
func (p *Pool) runShared(body func(), want int) {
	var wg sync.WaitGroup
	for i := 0; i < want-1; i++ {
		wg.Add(1)
		ok := p.trySubmit(func() {
			defer wg.Done()
			body()
		})
		if !ok {
			wg.Done()
			break // pool saturated: the caller absorbs the rest
		}
	}
	body()
	wg.Wait()
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
// fn receives the shard index so callers can keep shard-local scratch
// state; with a nil probe the same static schedule runs with a nil
// shard probe.
func (p *Pool) ForProbe(probe *perf.Probe, n, grain int, fn func(start, end, shard int, probe *perf.Probe)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = 1
	}
	nchunks := chunkCount(n, grain)
	shards := min(ProbeShards, nchunks)
	if shards == 1 {
		fn(0, n, 0, probe)
		return
	}
	shardProbes := probe.Shards(shards)
	var next atomic.Int64
	body := func() {
		for {
			s := int(next.Add(1)) - 1
			if s >= shards {
				return
			}
			for c := s; c < nchunks; c += shards {
				lo := c * grain
				hi := lo + grain
				if hi > n {
					hi = n
				}
				fn(lo, hi, s, shardProbes[s])
			}
			// The shard's unfilled batch replays here, beside the other
			// shards, not serially in MergeShards after the barrier.
			shardProbes[s].Settle()
		}
	}
	p.runShared(body, min(p.Workers(), shards))
	probe.MergeShards(shardProbes)
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
