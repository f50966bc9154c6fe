package cloud

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// This file models the bounded side of the paper's deployment problem:
// a batch of flows does not rent an unlimited number of VMs — it
// contends for a finite fleet. A Fleet is that pool: a fixed set of
// rentable instances, each with a busy timeline of leases and a
// utilization/cost ledger. The flow scheduler's event loop acquires
// and books instances against simulated time; everything here is plain
// deterministic arithmetic, so a schedule built on a Fleet is
// bit-identical for any real worker count.

// Lease is one booked interval on a fleet instance: one stage (or one
// whole single-instance flow) of one job.
type Lease struct {
	Job   string
	Stage string
	// StartSec/EndSec bound the interval in simulated seconds.
	StartSec, EndSec float64
	// CostUSD is the bill for the interval under the instance type's
	// per-second pricing and minimum billing granularity.
	CostUSD float64
	// Revoked marks a lease truncated by a spot revocation: the
	// instance was reclaimed at RevokedAt (== EndSec), the work past it
	// was lost, and the ledger bills only up to that point.
	Revoked   bool
	RevokedAt float64
}

// FleetInstance is one rentable machine of a fleet.
type FleetInstance struct {
	// ID labels the instance uniquely within its fleet, e.g. "mem.8x#1".
	ID   string
	Type InstanceType
	// FreeAtSec is the simulated time the instance next becomes
	// available (the end of its last lease).
	FreeAtSec float64
	// BusySec totals leased time; CostUSD totals the bills.
	BusySec float64
	CostUSD float64
	// Leases is the live timeline: every lease not yet moved out by
	// Settle.
	Leases []Lease

	// settledFree, settledBusy and settledCost are the left folds over
	// the leases Settle moved out — the max end, the summed durations and
	// the summed bills a ledger recompute would have accumulated before
	// reaching the first live lease. Continuing each fold from its carry
	// gives the bits the full timeline would.
	settledFree, settledBusy, settledCost float64
}

// Fleet is a bounded pool of rentable instances.
type Fleet struct {
	Instances []*FleetInstance
	// Revocation, when non-nil, injects seeded spot revocations into
	// Book and Extend: a lease overlapping a revocation event of its
	// (revocable) instance is truncated there and billed only up to
	// the event. nil — or a zero-hazard model — never truncates.
	Revocation *RevocationModel
}

// FleetEntry sizes one slice of a fleet: Count instances of one type.
type FleetEntry struct {
	Type  InstanceType
	Count int
}

// NewFleet builds a fleet from typed entries. Instances are numbered
// per type in entry order, so the pool layout — and therefore every
// tie-break in Acquire — is deterministic.
func NewFleet(entries ...FleetEntry) *Fleet {
	f := &Fleet{}
	seen := map[string]int{}
	for _, e := range entries {
		for i := 0; i < e.Count; i++ {
			n := seen[e.Type.Name]
			seen[e.Type.Name]++
			f.Instances = append(f.Instances, &FleetInstance{
				ID:   fmt.Sprintf("%s#%d", e.Type.Name, n),
				Type: e.Type,
			})
		}
	}
	return f
}

// MaxFleetInstances bounds the instances a fleet spec may name in
// total. A spec comes from a command line, and NewFleet allocates one
// instance (and one ID string) per count, so an unbounded count would
// exhaust memory before any check downstream could refuse it.
const MaxFleetInstances = 1 << 16

// ParseFleetSpec builds a fleet from a "name=count,name=count" spec
// against a catalog, e.g. "gp.4x=2,mem.8x=1". A bare name means one
// instance. A spec naming more than MaxFleetInstances instances in
// total is refused before anything is allocated.
func ParseFleetSpec(catalog *Catalog, spec string) (*Fleet, error) {
	var entries []FleetEntry
	total := 0
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, countStr, hasCount := strings.Cut(part, "=")
		count := 1
		if hasCount {
			v, err := strconv.Atoi(strings.TrimSpace(countStr))
			if err != nil || v < 1 {
				return nil, fmt.Errorf("cloud: bad fleet count in %q", part)
			}
			count = v
		}
		if count > MaxFleetInstances-total {
			return nil, fmt.Errorf("cloud: fleet spec %q names more than %d instances", spec, MaxFleetInstances)
		}
		total += count
		it, err := catalog.ByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		entries = append(entries, FleetEntry{Type: it, Count: count})
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("cloud: empty fleet spec %q", spec)
	}
	return NewFleet(entries...), nil
}

// Acquire returns the index of the instance of the named type (any
// type when typeName is empty) that can start work earliest at or
// after readySec, and that start time. Ties break toward the lowest
// instance index, so grants are a pure function of the fleet state.
func (f *Fleet) Acquire(typeName string, readySec float64) (int, float64, error) {
	best, bestStart := -1, 0.0
	for i, inst := range f.Instances {
		if typeName != "" && inst.Type.Name != typeName {
			continue
		}
		start := inst.FreeAtSec
		if start < readySec {
			start = readySec
		}
		if best < 0 || start < bestStart {
			best, bestStart = i, start
		}
	}
	if best < 0 {
		if typeName == "" {
			return 0, 0, fmt.Errorf("cloud: fleet has no instances")
		}
		return 0, 0, fmt.Errorf("cloud: fleet has no %q instances", typeName)
	}
	return best, bestStart, nil
}

// Book leases instance idx for [startSec, startSec+durSec), billing it
// under the instance type's pricing, and returns the lease index. The
// start must not precede the instance's free time. Under a revocation
// model, a revocation event inside the interval truncates the lease
// there: the instance is reclaimed, the bill covers only the time up
// to the event, and the replacement capacity is free again at the
// event time (the provider refills the pool). Callers detect the cut
// via the returned lease's Revoked flag.
func (f *Fleet) Book(idx int, job, stage string, startSec, durSec float64) int {
	inst := f.Instances[idx]
	end := startSec + durSec
	l := Lease{
		Job: job, Stage: stage,
		StartSec: startSec,
		EndSec:   end,
	}
	if rev, ok := f.nextRevocation(inst, startSec); ok && rev < end {
		l.EndSec = rev
		l.Revoked = true
		l.RevokedAt = rev
	}
	l.CostUSD = inst.Type.Cost(l.EndSec - l.StartSec)
	inst.Leases = append(inst.Leases, l)
	inst.FreeAtSec = l.EndSec
	inst.BusySec += l.EndSec - l.StartSec
	inst.CostUSD = instanceCost(inst)
	return len(inst.Leases) - 1
}

// nextRevocation asks the fleet's model (if any) for the instance's
// first revocation strictly after afterSec.
func (f *Fleet) nextRevocation(inst *FleetInstance, afterSec float64) (float64, bool) {
	if f.Revocation == nil {
		return 0, false
	}
	return f.Revocation.NextRevocation(inst, afterSec)
}

// Extend stretches instance idx's latest lease by durSec — a job
// holding its machine across consecutive stages instead of releasing
// it — appending the stage to the lease label and re-billing the whole
// interval. It returns the marginal cost of the extension. Under a
// revocation model the extension can be truncated just like a fresh
// booking: the earlier part of the lease already survived (Book and
// prior Extends checked their own intervals), so only an event inside
// the new segment cuts it, marking the whole lease Revoked.
func (f *Fleet) Extend(idx int, stage string, durSec float64) float64 {
	inst := f.Instances[idx]
	l := &inst.Leases[len(inst.Leases)-1]
	before := l.CostUSD
	prevEnd := l.EndSec
	l.EndSec += durSec
	l.Stage += "+" + stage
	if rev, ok := f.nextRevocation(inst, prevEnd); ok && rev < l.EndSec {
		l.EndSec = rev
		l.Revoked = true
		l.RevokedAt = rev
	}
	l.CostUSD = inst.Type.Cost(l.EndSec - l.StartSec)
	inst.FreeAtSec = l.EndSec
	inst.BusySec += l.EndSec - prevEnd
	inst.CostUSD = instanceCost(inst)
	return l.CostUSD - before
}

// instanceCost re-sums an instance's lease bills so the ledger equals
// the exact sum of final lease costs regardless of extension order.
func instanceCost(inst *FleetInstance) float64 {
	c := inst.settledCost
	for _, l := range inst.Leases {
		c += l.CostUSD
	}
	return c
}

// Lease returns one lease of one instance.
func (f *Fleet) Lease(idx, lease int) Lease { return f.Instances[idx].Leases[lease] }

// TotalCostUSD sums the fleet bill over all instances.
func (f *Fleet) TotalCostUSD() float64 {
	var c float64
	for _, inst := range f.Instances {
		c += inst.CostUSD
	}
	return c
}

// HorizonSec returns the end of the latest lease in the fleet — the
// schedule's makespan as the fleet saw it.
func (f *Fleet) HorizonSec() float64 {
	var h float64
	for _, inst := range f.Instances {
		if inst.FreeAtSec > h {
			h = inst.FreeAtSec
		}
	}
	return h
}

// Utilization returns busy time over capacity across the fleet for the
// given horizon (0 means HorizonSec): 1.0 is a fleet with no idle
// gaps. An unused fleet reports 0.
func (f *Fleet) Utilization(horizonSec float64) float64 {
	if horizonSec <= 0 {
		horizonSec = f.HorizonSec()
	}
	if horizonSec <= 0 || len(f.Instances) == 0 {
		return 0
	}
	var busy float64
	for _, inst := range f.Instances {
		busy += inst.BusySec
	}
	return busy / (horizonSec * float64(len(f.Instances)))
}

// Reset clears every timeline and ledger, returning the fleet to an
// unused state so it can back another schedule.
func (f *Fleet) Reset() {
	for _, inst := range f.Instances {
		inst.FreeAtSec = 0
		inst.BusySec = 0
		inst.CostUSD = 0
		inst.Leases = nil
		inst.settledFree, inst.settledBusy, inst.settledCost = 0, 0, 0
	}
}

// LedgerRow is one line of the fleet's utilization/cost summary.
type LedgerRow struct {
	ID      string
	Leases  int
	BusySec float64
	CostUSD float64
	// UtilizationPct is the instance's busy share of the fleet horizon.
	UtilizationPct float64
}

// Ledger summarizes per-instance usage, ordered by instance index, for
// the given horizon (0 means HorizonSec). Leases counts live leases
// only; Unsettle first to count what Settle moved out.
func (f *Fleet) Ledger(horizonSec float64) []LedgerRow {
	if horizonSec <= 0 {
		horizonSec = f.HorizonSec()
	}
	rows := make([]LedgerRow, len(f.Instances))
	for i, inst := range f.Instances {
		rows[i] = LedgerRow{
			ID:      inst.ID,
			Leases:  len(inst.Leases),
			BusySec: inst.BusySec,
			CostUSD: inst.CostUSD,
		}
		if horizonSec > 0 {
			rows[i].UtilizationPct = 100 * inst.BusySec / horizonSec
		}
	}
	return rows
}

// Profile returns the fleet's capacity profile: the distinct instance
// types present with their counts, in first-appearance order. It is
// the form a batch optimizer consumes — per-type capacity constraints
// — and, fed back through NewFleet, reproduces a fleet whose
// within-type instance ordering (and therefore every typed Acquire
// tie-break) matches this one.
func (f *Fleet) Profile() []FleetEntry {
	var entries []FleetEntry
	index := map[string]int{}
	for _, inst := range f.Instances {
		if i, ok := index[inst.Type.Name]; ok {
			entries[i].Count++
			continue
		}
		index[inst.Type.Name] = len(entries)
		entries = append(entries, FleetEntry{Type: inst.Type, Count: 1})
	}
	return entries
}

// Clone returns an unused copy of the fleet: the same instance
// sequence — IDs, types, order, so every Acquire tie-break matches —
// with fresh timelines and ledgers. A schedule forecast books leases
// on a clone without dirtying the fleet the real run will use. The
// revocation model is shared, not copied: its timelines are a pure
// function of (seed, instance ID), so the clone sees exactly the
// revocations the original will — the property that makes forecasts
// under faults bit-exact.
func (f *Fleet) Clone() *Fleet {
	out := &Fleet{
		Instances:  make([]*FleetInstance, len(f.Instances)),
		Revocation: f.Revocation,
	}
	for i, inst := range f.Instances {
		out.Instances[i] = &FleetInstance{ID: inst.ID, Type: inst.Type}
	}
	return out
}

// Snapshot returns a deep copy of the fleet including every live lease,
// ledger total and settled carry — unlike Clone, which returns an
// unused twin. A serving layer trial-books a re-plan on a snapshot and
// adopts or discards the whole fleet state atomically. The revocation model is shared, not
// copied, for the same reason Clone shares it: its timelines are a pure
// function of (seed, instance ID).
func (f *Fleet) Snapshot() *Fleet {
	out := &Fleet{
		Instances:  make([]*FleetInstance, len(f.Instances)),
		Revocation: f.Revocation,
	}
	for i, inst := range f.Instances {
		cp := *inst
		cp.Leases = append([]Lease(nil), inst.Leases...)
		out.Instances[i] = &cp
	}
	return out
}

// ReleaseFrom cancels every lease that has not started by tSec —
// reservations for future work — and recomputes each instance's
// free-time, busy and cost ledgers from the leases that remain. Leases
// already running at tSec (start < tSec) stand untouched, ends and all:
// a booked stage runs to completion once started (its checkpoint is the
// stage boundary). This is the rolling-horizon seam: a re-optimizer
// releases the uncommitted tail of the schedule and re-books it against
// the fleet's remaining capacity. It returns the number of leases
// released.
func (f *Fleet) ReleaseFrom(tSec float64) int { return f.ReleaseWhere(tSec, nil) }

// ReleaseWhere is ReleaseFrom restricted to the not-yet-started leases
// drop selects (nil selects all of them) — a canceled job's future
// bookings, say, while every other reservation stands. The ledgers are
// recomputed the same way ReleaseFrom recomputes them.
func (f *Fleet) ReleaseWhere(tSec float64, drop func(Lease) bool) int {
	released := 0
	for _, inst := range f.Instances {
		kept := inst.Leases[:0]
		for _, l := range inst.Leases {
			if l.StartSec >= tSec && (drop == nil || drop(l)) {
				released++
				continue
			}
			kept = append(kept, l)
		}
		inst.Leases = kept
		inst.FreeAtSec = inst.settledFree
		inst.BusySec = inst.settledBusy
		for _, l := range inst.Leases {
			if l.EndSec > inst.FreeAtSec {
				inst.FreeAtSec = l.EndSec
			}
			inst.BusySec += l.EndSec - l.StartSec
		}
		inst.CostUSD = instanceCost(inst)
	}
	return released
}

// Settle moves out of each instance the longest prefix of leases no
// release at tSec or later can touch — started before tSec and ended
// by it — folds them into the instance's carries, and returns them per
// instance (nil when none moved). A zero-length lease starting exactly
// at tSec stays live: ReleaseFrom(tSec) would still release it. Every
// ledger total keeps its bits, so a settling fleet matches one that
// never settles as long as no later release runs before tSec. A rolling
// re-planner settles as its clock advances, so each re-plan copies and
// rescans only the live tail instead of every lease ever booked.
func (f *Fleet) Settle(tSec float64) [][]Lease {
	var out [][]Lease
	for i, inst := range f.Instances {
		n := 0
		for n < len(inst.Leases) && inst.Leases[n].StartSec < tSec && inst.Leases[n].EndSec <= tSec {
			l := inst.Leases[n]
			if l.EndSec > inst.settledFree {
				inst.settledFree = l.EndSec
			}
			inst.settledBusy += l.EndSec - l.StartSec
			inst.settledCost += l.CostUSD
			n++
		}
		if n == 0 {
			continue
		}
		if out == nil {
			out = make([][]Lease, len(f.Instances))
		}
		// Appends to the live tail land past index n, so the settled prefix
		// is never written again.
		out[i] = inst.Leases[:n:n]
		inst.Leases = inst.Leases[n:]
	}
	return out
}

// Unsettle returns a deep copy of the fleet with settled — the leases
// Settle returned, per instance and in order — put back in front of
// each live timeline and the carries cleared: the fleet that never
// settled, with the same ledger to the bit.
func (f *Fleet) Unsettle(settled [][]Lease) *Fleet {
	out := &Fleet{
		Instances:  make([]*FleetInstance, len(f.Instances)),
		Revocation: f.Revocation,
	}
	for i, inst := range f.Instances {
		cp := *inst
		var prefix []Lease
		if i < len(settled) {
			prefix = settled[i]
		}
		cp.Leases = slices.Concat(prefix, inst.Leases)
		cp.settledFree, cp.settledBusy, cp.settledCost = 0, 0, 0
		out.Instances[i] = &cp
	}
	return out
}

// TypeByName returns the instance type of the given name present in
// the fleet — the lookup a retry policy uses to escalate a revoked
// stage from a spot type to its on-demand counterpart, which only
// works when the fleet actually holds such machines.
func (f *Fleet) TypeByName(name string) (InstanceType, bool) {
	for _, inst := range f.Instances {
		if inst.Type.Name == name {
			return inst.Type, true
		}
	}
	return InstanceType{}, false
}

// Types lists the distinct instance type names present in the fleet,
// sorted, with counts — the menu a scheduling policy can choose from.
func (f *Fleet) Types() map[string]int {
	out := map[string]int{}
	for _, inst := range f.Instances {
		out[inst.Type.Name]++
	}
	return out
}

// String renders a compact spec of the fleet ("gp.4x=2,mem.8x=1").
func (f *Fleet) String() string {
	counts := f.Types()
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s=%d", n, counts[n])
	}
	return strings.Join(parts, ",")
}
