package flow

import (
	"errors"

	"edacloud/internal/aig"
	"edacloud/internal/netlist"
	"edacloud/internal/place"
	"edacloud/internal/route"
	"edacloud/internal/sta"
)

// This file is the flow's one artifact model: which typed artifacts a
// run carries, and which of them each stage kind reads and writes.
// Prerequisite checks, cache-key anchors and the cache payload's
// capture, install and size all iterate the two tables below; nothing
// else switches on the four kinds.

// Artifacts is the set of typed artifacts the stages hand to each
// other. Stages replace a slot's value, never mutate it, so a copy of
// the struct is a consistent snapshot.
type Artifacts struct {
	// Optimized is the post-recipe AIG (set by synthesis).
	Optimized *aig.Graph
	// Netlist is the mapped netlist (set by synthesis).
	Netlist *netlist.Netlist
	// Placement holds cell locations (set by placement).
	Placement *place.Placement
	// Routing is the global-routing result (set by routing).
	Routing *route.Result
	// Timing is the STA report (set by the sta stage).
	Timing *sta.Result
}

// slot names one Artifacts field.
type slot int

const (
	slotOptimized slot = iota
	slotNetlist
	slotPlacement
	slotRouting
	slotTiming
	numSlots
)

// artifact is what every slot's type provides next to its struct: its
// canonical content hash and its footprint in the cache's byte budget.
type artifact interface {
	Fingerprint() uint64
	ApproxBytes() int64
}

// slotDef lets the flow handle a slot without naming its type.
type slotDef struct {
	// get returns the slot's value, or nil while the slot is empty.
	get func(*Artifacts) artifact
	// copy sets dst's slot to src's value (nil included).
	copy func(dst, src *Artifacts)
}

func slotOf[T any, P interface {
	*T
	artifact
}](field func(*Artifacts) *P) slotDef {
	return slotDef{
		get: func(a *Artifacts) artifact {
			if p := *field(a); p != nil {
				return p
			}
			return nil
		},
		copy: func(dst, src *Artifacts) { *field(dst) = *field(src) },
	}
}

var slots = [numSlots]slotDef{
	slotOptimized: slotOf(func(a *Artifacts) **aig.Graph { return &a.Optimized }),
	slotNetlist:   slotOf(func(a *Artifacts) **netlist.Netlist { return &a.Netlist }),
	slotPlacement: slotOf(func(a *Artifacts) **place.Placement { return &a.Placement }),
	slotRouting:   slotOf(func(a *Artifacts) **route.Result { return &a.Routing }),
	slotTiming:    slotOf(func(a *Artifacts) **sta.Result { return &a.Timing }),
}

// kindDecl declares the slots one stage kind reads and writes.
type kindDecl struct {
	// needs must be filled before the stage can run; a kind that needs
	// nothing is the flow's root and reads the run's Design and Lib.
	needs []slot
	// optional is read when filled and changes the result (STA's wire
	// loads), so it is part of the input identity either way.
	optional []slot
	// makes is what the stage stores: the cache entry's payload.
	makes []slot
	// missing is the stage's error while a needs slot is empty.
	missing string
}

const missingNetlist = "no netlist in context (run a synthesis stage first)"

var kinds = [...]kindDecl{
	JobSynthesis: {makes: []slot{slotOptimized, slotNetlist}},
	JobPlacement: {needs: []slot{slotNetlist}, makes: []slot{slotPlacement}, missing: missingNetlist},
	JobRouting: {needs: []slot{slotNetlist, slotPlacement}, makes: []slot{slotRouting},
		missing: "no placed netlist in context (run synthesis and placement first)"},
	JobSTA: {needs: []slot{slotNetlist}, optional: []slot{slotPlacement}, makes: []slot{slotTiming}, missing: missingNetlist},
}

// has reports whether every listed slot is filled.
func (a *Artifacts) has(ss []slot) bool {
	for _, s := range ss {
		if slots[s].get(a) == nil {
			return false
		}
	}
	return true
}

// require returns built-in kind k's prerequisite error while one of
// the slots it needs is empty.
func (rc *RunContext) require(k JobKind) error {
	if d := &kinds[k]; !rc.has(d.needs) {
		return errors.New(d.missing)
	}
	return nil
}
