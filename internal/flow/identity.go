package flow

import "edacloud/internal/hash"

// This file gives a flow run stable artifact identities: the inputs
// and every artifact slot of the RunContext have a canonical content
// hash — each type's own Fingerprint — computed once per artifact and
// memoized on the pointer (stages replace their predecessors' outputs
// rather than mutating them, so a changed pointer is exactly an
// invalidated hash). The hashes are what the content-addressed
// artifact cache anchors its key chains on and verifies adopted
// entries against, and what tests pin as goldens.

// idMemo memoizes one artifact pointer's content hash.
type idMemo struct {
	ptr any
	fp  uint64
}

func (m *idMemo) of(p interface{ Fingerprint() uint64 }) uint64 {
	if m.ptr != p {
		m.ptr, m.fp = p, p.Fingerprint()
	}
	return m.fp
}

// artifactIDs holds the RunContext's memoized hashes.
type artifactIDs struct {
	design, lib idMemo
	slot        [numSlots]idMemo
}

// DesignHash is the canonical content hash of the input AIG; 0 when
// absent. Like all the artifact hashes it is computed once and
// memoized until the slot's pointer changes.
func (rc *RunContext) DesignHash() uint64 {
	if rc.Design == nil {
		return 0
	}
	return rc.ids.design.of(rc.Design)
}

// LibHash is the canonical content hash of the technology library; 0
// when absent.
func (rc *RunContext) LibHash() uint64 {
	if rc.Lib == nil {
		return 0
	}
	return rc.ids.lib.of(rc.Lib)
}

// slotHash is the memoized content hash of artifact slot s; 0 while
// the slot is empty.
func (rc *RunContext) slotHash(s slot) uint64 {
	a := slots[s].get(&rc.Artifacts)
	if a == nil {
		return 0
	}
	return rc.ids.slot[s].of(a)
}

// OptimizedHash is the content hash of the post-recipe AIG; 0 when
// synthesis has not run.
func (rc *RunContext) OptimizedHash() uint64 { return rc.slotHash(slotOptimized) }

// NetlistHash is the content hash of the mapped netlist; 0 before
// synthesis.
func (rc *RunContext) NetlistHash() uint64 { return rc.slotHash(slotNetlist) }

// PlacementHash is the content hash of the placement; 0 before
// placement (the "no placement" marker zero-wire-load STA keys on).
func (rc *RunContext) PlacementHash() uint64 { return rc.slotHash(slotPlacement) }

// RoutingHash is the content hash of the routing result; 0 before
// routing.
func (rc *RunContext) RoutingHash() uint64 { return rc.slotHash(slotRouting) }

// TimingHash is the content hash of the STA result; 0 before sta.
func (rc *RunContext) TimingHash() uint64 { return rc.slotHash(slotTiming) }

// inputAnchor is the content hash of the direct inputs stage kind k
// reads from the context — the root a key chain anchors on and the
// value adoption verifies a cached entry's InputHash against. ok is
// false while the prerequisites are missing (at planning time, or
// before the predecessor stages ran). A single input anchors on its
// own hash; several are folded in declaration order, an empty optional
// slot contributing its 0.
func (rc *RunContext) inputAnchor(k JobKind) (uint64, bool) {
	if k < 0 || int(k) >= len(kinds) || !rc.has(kinds[k].needs) {
		return 0, false
	}
	d := &kinds[k]
	if len(d.needs) == 0 {
		// The flow's root reads the run's inputs, not another stage's
		// artifacts.
		if rc.Design == nil || rc.Lib == nil {
			return 0, false
		}
		h := hash.New()
		h.Word(rc.DesignHash())
		h.Word(rc.LibHash())
		return uint64(h), true
	}
	if len(d.needs)+len(d.optional) == 1 {
		return rc.slotHash(d.needs[0]), true
	}
	h := hash.New()
	for _, s := range d.needs {
		h.Word(rc.slotHash(s))
	}
	for _, s := range d.optional {
		h.Word(rc.slotHash(s))
	}
	return uint64(h), true
}

// Fingerprinted is the optional Stage extension the artifact cache
// keys on: a canonical hash of the stage's result-shaping options plus
// an engine revision tag. Execution knobs that cannot change the
// artifacts (worker bounds, probes) must be excluded — that is what
// makes one cache entry valid across instance sizes. A stage that does
// not implement it is uncacheable and breaks the key chain: it and
// every later stage run uncached until a cacheable stage re-anchors on
// the live artifact hashes at execution time (which a planning-time
// prediction cannot do, so predicted chains stop at the break).
type Fingerprinted interface {
	OptionsFingerprint() uint64
	// EngineVersion names the engine implementation revision; bump it
	// whenever the engine's output for identical inputs changes, so
	// stale artifacts from the old engine can never be adopted.
	EngineVersion() string
}
