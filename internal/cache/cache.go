// Package cache is the fleet-wide content-addressed artifact store:
// design-space exploration re-runs the same designs under many recipes,
// and each stage's input is the previous stage's output, so shared flow
// prefixes across jobs — and across tenants — need computing only once.
//
// Keys chain along a flow: the first cacheable stage's key folds the
// content hash of its actual input artifacts (the design AIG and
// library identity), the stage name, its options fingerprint and the
// engine version; every later stage folds its predecessor's key in
// place of the input hash. Chaining is what makes hits *predictable*
// before any artifact exists — the optimizer can compute the whole key
// chain of a planned flow from the design alone, which is how a
// predicted hit collapses a stage's planned runtime and cost to the
// cache-probe constant. Each stored entry still records the content
// hash of the direct inputs it was computed from, and adoption
// verifies it against the live run, so a chain collision can never
// smuggle in wrong artifacts (it falls back to recomputing).
//
// The store has two disciplines, mirroring the scheduler's two phases:
// during the parallel pipeline phase it is frozen — pipelines call
// Peek, which touches no statistics and no recency state, so reads are
// race-free and timing-independent — and afterwards the scheduler
// replays each job's lookups serially in job order (Access/Put), which
// is where hits are billed, recency is updated and new entries land.
// Eviction (EvictOver) runs only between batches, never inside one, so
// a batch's hit/miss pattern is a pure function of the store's state
// at batch start plus the job order — the property that lets a
// forecast under predicted hits match the execution exactly.
package cache

import (
	"sort"

	"edacloud/internal/hash"
)

// ProbeSeconds is the simulated wall-clock cost of serving one stage
// from the cache — the "near-zero cache-probe constant" a predicted
// hit collapses a stage's runtime to. It is deliberately nonzero so
// cached stages still order deterministically in the event simulation.
const ProbeSeconds = 1.0

// ProbeTimeSec is ProbeSeconds in the knapsack's integral currency.
const ProbeTimeSec = 1

// Key is a chained content signature identifying one (input, stage,
// options, engine version) computation. The zero Key means
// "uncacheable" and is never stored.
type Key uint64

// Chain derives the key of one stage computation from its input
// identity (the previous stage's key, or the content hash of the
// actual input artifacts at a chain root), the stage name, the
// stage's canonical options fingerprint and its engine version.
func Chain(input uint64, stage string, optionsFP uint64, version string) Key {
	h := hash.New()
	h.Word(input)
	h.Str(stage)
	h.Word(optionsFP)
	h.Str(version)
	if h == 0 {
		h = 1 // reserve 0 for "uncacheable"
	}
	return Key(h)
}

// Entry is one cached stage computation.
type Entry struct {
	Key   Key
	Stage string
	// InputHash is the content hash of the direct input artifacts the
	// entry was computed from; adoption verifies it against the live
	// run's artifacts before installing anything.
	InputHash uint64
	// Bytes is the entry's approximate artifact footprint, the unit the
	// byte-budget eviction accounts in.
	Bytes int64
	// Payload holds the producing layer's typed artifact references
	// (flow owns the concrete type); the store never inspects it.
	Payload any

	lastUse uint64
}

// Stats counts the store's serial accounting: billed hits and misses
// (Access), insertions (Put) and budget evictions.
type Stats struct {
	Hits, Misses, Puts, Evictions int64
	// BytesLive is the current footprint; BytesEvicted totals what the
	// byte budget pushed out.
	BytesLive, BytesEvicted int64
}

// HitRate is the billed hit fraction of all billed lookups, 0 when
// nothing has been billed — the headline dedup metric exploration
// reports and the bench suite tracks.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Store is the content-addressed artifact store. It is not internally
// locked: concurrent use is safe only through Peek while no writer
// runs (the scheduler's frozen phase); Access, Put and EvictOver are
// serial-phase operations.
type Store struct {
	// BudgetBytes bounds the live footprint; EvictOver evicts least-
	// recently-used entries past it. 0 means unlimited.
	BudgetBytes int64

	entries map[Key]*Entry
	seq     uint64
	stats   Stats
}

// New builds a store with the given byte budget (0 = unlimited).
func New(budgetBytes int64) *Store {
	return &Store{BudgetBytes: budgetBytes, entries: map[Key]*Entry{}}
}

// Peek returns the entry under k without touching statistics or
// recency — the frozen-phase read concurrent pipeline runs use.
func (s *Store) Peek(k Key) (*Entry, bool) {
	e, ok := s.entries[k]
	return e, ok
}

// Contains reports whether k is present, without accounting — the
// prediction read plan optimizers use.
func (s *Store) Contains(k Key) bool {
	_, ok := s.entries[k]
	return ok
}

// Access is the serial accounting lookup: a present key counts a hit
// and refreshes its recency; an absent one counts a miss.
func (s *Store) Access(k Key) (*Entry, bool) {
	e, ok := s.entries[k]
	if !ok {
		s.stats.Misses++
		return nil, false
	}
	s.stats.Hits++
	s.seq++
	e.lastUse = s.seq
	return e, true
}

// Put inserts (or replaces) an entry. It never evicts — the byte
// budget is enforced between batches by EvictOver, so a batch's hit
// pattern depends only on the store's state at batch start.
func (s *Store) Put(e *Entry) {
	if e == nil || e.Key == 0 {
		return
	}
	if old, ok := s.entries[e.Key]; ok {
		s.stats.BytesLive -= old.Bytes
	}
	s.seq++
	e.lastUse = s.seq
	s.entries[e.Key] = e
	s.stats.Puts++
	s.stats.BytesLive += e.Bytes
}

// EvictOver evicts least-recently-used entries until the live
// footprint fits the byte budget, and returns how many were evicted.
// Ties in recency cannot occur (every Access/Put draws a fresh
// sequence number), so eviction order is deterministic.
func (s *Store) EvictOver() int {
	if s.BudgetBytes <= 0 || s.stats.BytesLive <= s.BudgetBytes {
		return 0
	}
	victims := make([]*Entry, 0, len(s.entries))
	for _, e := range s.entries {
		victims = append(victims, e)
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].lastUse < victims[j].lastUse })
	n := 0
	for _, e := range victims {
		if s.stats.BytesLive <= s.BudgetBytes {
			break
		}
		delete(s.entries, e.Key)
		s.stats.BytesLive -= e.Bytes
		s.stats.BytesEvicted += e.Bytes
		s.stats.Evictions++
		n++
	}
	return n
}

// Len returns the number of live entries.
func (s *Store) Len() int { return len(s.entries) }

// Bytes returns the live footprint.
func (s *Store) Bytes() int64 { return s.stats.BytesLive }

// Stats returns a snapshot of the accounting counters.
func (s *Store) Stats() Stats { return s.stats }

// PredictChains walks job key chains in batch order and marks which
// stages the serial accounting replay will bill as hits: a key already
// in the store, or one an earlier chain of the same batch computes
// (the replay puts it before the later job's lookup). Zero keys are
// uncacheable stages and never hit. The store is not touched, so the
// prediction is exactly the replay's decision procedure run read-only
// — the contract that makes cache-aware forecasts match execution.
func (s *Store) PredictChains(chains [][]Key) [][]bool {
	pending := map[Key]bool{}
	out := make([][]bool, len(chains))
	for i, chain := range chains {
		hits := make([]bool, len(chain))
		for l, k := range chain {
			if k == 0 {
				continue
			}
			hits[l] = s.Contains(k) || pending[k]
		}
		for _, k := range chain {
			if k != 0 {
				pending[k] = true
			}
		}
		out[i] = hits
	}
	return out
}
