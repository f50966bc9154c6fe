package flow

import (
	"edacloud/internal/aig"
	"edacloud/internal/cache"
	"edacloud/internal/perf"
	"edacloud/internal/techlib"
)

// This file wires the content-addressed artifact cache (internal/cache)
// into the pipeline. Each cacheable stage gets a chain key derived from
// its input identity, name, options fingerprint and engine version; a
// verified hit adopts the stored artifacts instead of running the
// stage, bit-identical to recomputation because the engines themselves
// are deterministic and adoption checks the entry's recorded input
// hash against the live run's artifacts.
//
// The Scheduler is the one way a store attaches (withFrozenCache):
// pipelines running in the parallel phase only Peek (race-free,
// timing-independent) and record their lookups on the RunContext; the
// scheduler then replays the records serially in job order
// (replayAccounting), which is the single place hits are billed,
// recency moves and computed entries land — so two jobs computing the
// same prefix concurrently still settle as one compute plus one billed
// hit, at any worker count.

// withFrozenCache attaches the store in the scheduler's frozen form:
// stages only Peek and record their lookups for a later serial
// accounting replay.
func withFrozenCache(store *cache.Store) Option {
	return func(c *config) { c.cache = store }
}

// cacheStep records one frozen-phase stage lookup for the serial
// accounting replay. A nil entry means the stage adopted a stored
// entry; otherwise entry holds the freshly computed artifacts to put.
type cacheStep struct {
	kind  JobKind
	key   cache.Key
	entry *cache.Entry
}

// cachedArtifacts is the flow-typed payload of a cache entry: the
// artifacts stage kind `kind` produced — an Artifacts value holding
// only the kind's `makes` slots — plus its perf report. Artifacts are
// shared by reference — safe because stages replace their
// predecessors' outputs rather than mutating them. The adopted report
// is the original run's instrumentation; a billed hit never replays it
// for billing (hits cost the probe constant), it only keeps the report
// map's shape identical to a cold run.
type cachedArtifacts struct {
	kind JobKind
	Artifacts
	report *perf.Report
}

// captureArtifacts copies what kind k makes out of the run. Callers
// hold k's inputAnchor, so k is in the kinds table.
func captureArtifacts(rc *RunContext, k JobKind) *cachedArtifacts {
	a := &cachedArtifacts{kind: k, report: rc.Reports[k]}
	for _, s := range kinds[k].makes {
		slots[s].copy(&a.Artifacts, &rc.Artifacts)
	}
	return a
}

func (a *cachedArtifacts) install(rc *RunContext) {
	for _, s := range kinds[a.kind].makes {
		slots[s].copy(&rc.Artifacts, &a.Artifacts)
	}
	if a.report != nil {
		rc.Reports[a.kind] = a.report
	}
}

// bytes estimates the payload's in-memory footprint — the unit the
// store's byte budget accounts in.
func (a *cachedArtifacts) bytes() int64 {
	var b int64 = 64
	for _, sd := range slots {
		if v := sd.get(&a.Artifacts); v != nil {
			b += v.ApproxBytes()
		}
	}
	if a.report != nil {
		b += a.report.ApproxBytes()
	}
	return b
}

// stageKey derives stage s's cache key given the previous stage's key.
// A non-zero prev chains directly (the predecessor's key determines
// its deterministic outputs, which are this stage's inputs); prev 0 —
// the chain root, or a chain broken by an uncacheable stage — anchors
// on the content hash of the live input artifacts, or returns 0 when
// they are not available (the planning-time case).
func (p *Pipeline) stageKey(rc *RunContext, s Stage, prev cache.Key) cache.Key {
	fp, ok := s.(Fingerprinted)
	if !ok {
		return 0
	}
	input := uint64(prev)
	if input == 0 {
		anchor, ok := rc.inputAnchor(s.Kind())
		if !ok {
			return 0
		}
		input = anchor
	}
	return cache.Chain(input, s.Name(), fp.OptionsFingerprint(), fp.EngineVersion())
}

// StageKey is one planned stage's cache identity. Key 0 marks an
// uncacheable stage (no fingerprint, or past a chain break).
type StageKey struct {
	Kind JobKind
	Key  cache.Key
}

// CacheKeys computes the pipeline's stage key chain for the given
// inputs without running anything — the planning-time half of the
// cache contract. Because chained keys derive from the predecessor's
// key rather than from artifacts, the whole chain of a default flow is
// computable from the design and library alone; stages past an
// uncacheable stage get key 0 (at execution time they may still
// re-anchor on live artifacts, but a plan must assume a miss).
func (p *Pipeline) CacheKeys(g *aig.Graph, lib *techlib.Library) []StageKey {
	rc := p.newRunContext(g, lib)
	out := make([]StageKey, 0, len(p.stages))
	var chain cache.Key
	for _, s := range p.stages {
		key := p.stageKey(rc, s, chain)
		chain = key
		out = append(out, StageKey{Kind: s.Kind(), Key: key})
	}
	return out
}

// tryAdopt serves stage s from the cache if its entry is present and
// verifies against the live inputs. Returns (adopted, collision):
// collision marks a present entry whose recorded input hash does not
// match the live artifacts — a chain collision; the stage recomputes
// and the store is left untouched.
func (p *Pipeline) tryAdopt(rc *RunContext, s Stage, key cache.Key, i, total int) (bool, bool) {
	k := s.Kind()
	inHash, ok := rc.inputAnchor(k)
	if !ok {
		return false, false
	}
	e, present := p.cfg.cache.Peek(key)
	if !present {
		return false, false
	}
	a, isArt := e.Payload.(*cachedArtifacts)
	if e.InputHash != inHash || !isArt || a.kind != k {
		return false, true
	}
	p.emit(Event{Type: StageStarted, Stage: s.Name(), Kind: k, Index: i, Total: total})
	a.install(rc)
	p.emit(Event{Type: StageFinished, Stage: s.Name(), Kind: k, Index: i, Total: total})
	rc.cacheSteps = append(rc.cacheSteps, cacheStep{kind: k, key: key})
	return true, false
}

// recordComputed records the artifacts a cache-missed stage just
// computed for the serial accounting replay to put.
func (p *Pipeline) recordComputed(rc *RunContext, s Stage, key cache.Key) {
	k := s.Kind()
	inHash, ok := rc.inputAnchor(k)
	if !ok {
		return
	}
	a := captureArtifacts(rc, k)
	e := &cache.Entry{
		Key:       key,
		Stage:     s.Name(),
		InputHash: inHash,
		Bytes:     a.bytes(),
		Payload:   a,
	}
	rc.cacheSteps = append(rc.cacheSteps, cacheStep{kind: k, key: key, entry: e})
}

// replayAccounting replays one run's frozen-phase cache lookups
// against the live store — serially, in job order, which is the only
// place hits are billed, recency moves and computed entries land.
// Returns the stage kinds the batch settles as cache hits: adopted
// stages, plus computed stages whose key an earlier job of the same
// batch already put (within-batch dedup — the work was done once, the
// later job is billed a probe).
func replayAccounting(store *cache.Store, rc *RunContext) (hits [numKinds]bool) {
	for _, step := range rc.cacheSteps {
		if step.entry == nil {
			// Adopted during the frozen phase; nothing evicts mid-batch,
			// so the entry is still there to bill.
			store.Access(step.key)
			hits[step.kind] = true
			continue
		}
		if e, ok := store.Peek(step.key); ok {
			if e.InputHash == step.entry.InputHash {
				store.Access(step.key)
				hits[step.kind] = true
			}
			// A mismatched input hash is a chain collision with another
			// job's entry: the stage was computed anyway, bill nothing
			// and leave the store alone.
			continue
		}
		store.Access(step.key) // bill the miss
		store.Put(step.entry)
	}
	return hits
}
