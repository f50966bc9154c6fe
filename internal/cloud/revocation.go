package cloud

import (
	"math"
	"sync"

	"edacloud/internal/hash"
)

// This file is the fault injector of the preemptible-capacity model:
// spot instances are cheap because the provider may reclaim them, and
// an optimizer that ignores that fact silently assumes infallible
// machines. A RevocationModel turns reclamation into deterministic,
// replayable data: every fleet instance gets its own revocation
// timeline — a pure function of (model seed, instance ID) — drawn as
// exponential inter-arrival gaps under the instance type's hazard
// rate. Because the timeline depends on nothing else, a forecast on a
// fleet Clone and the real execution see bit-identical revocations,
// which is what keeps the repo's forecast-matches-execution contract
// alive under faults.

// RevocationModel injects seeded, reproducible revocations into a
// fleet's revocable instances. The zero hazard map (or a nil model)
// never revokes anything, so attaching a zero-hazard model reproduces
// fault-free schedules byte for byte.
type RevocationModel struct {
	// Seed roots every per-instance random stream. Two models with the
	// same seed and hazards produce identical timelines.
	Seed int64
	// HazardPerHour maps instance-type names to expected revocations
	// per hour of wall time. Types absent from the map — and types not
	// marked Revocable — are never revoked.
	HazardPerHour map[string]float64

	mu        sync.Mutex
	timelines map[string]*revTimeline
}

// revTimeline is one instance's memoized revocation event stream:
// absolute simulated times, extended lazily and never regenerated, so
// queries are order-independent.
type revTimeline struct {
	rng    uint64
	last   float64
	events []float64
}

// NewRevocationModel builds a model from a seed and per-type hazards.
func NewRevocationModel(seed int64, hazardPerHour map[string]float64) *RevocationModel {
	return &RevocationModel{Seed: seed, HazardPerHour: hazardPerHour}
}

// UniformSpotHazards maps every revocable type of the catalog to one
// hazard rate — the common "all spot capacity is equally risky" setup
// the CLI flags expose.
func UniformSpotHazards(c *Catalog, ratePerHour float64) map[string]float64 {
	out := map[string]float64{}
	for _, it := range c.Types {
		if it.Revocable {
			out[it.Name] = ratePerHour
		}
	}
	return out
}

// Rate returns the hazard (revocations per hour) for an instance type:
// zero unless the type is revocable and carries a positive hazard.
func (m *RevocationModel) Rate(it InstanceType) float64 {
	if m == nil || !it.Revocable {
		return 0
	}
	r := m.HazardPerHour[it.Name]
	if r < 0 {
		return 0
	}
	return r
}

// NextRevocation returns the first revocation of the given instance
// strictly after afterSec, or ok=false when the instance is never
// revoked. The result is a pure function of (seed, hazards, instance
// ID, afterSec): timelines are memoized and extended monotonically, so
// interleaving queries across instances cannot change any answer.
func (m *RevocationModel) NextRevocation(inst *FleetInstance, afterSec float64) (float64, bool) {
	rate := m.Rate(inst.Type)
	if rate <= 0 {
		return 0, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.timelines == nil {
		m.timelines = map[string]*revTimeline{}
	}
	tl := m.timelines[inst.ID]
	if tl == nil {
		tl = &revTimeline{rng: streamSeed(m.Seed, inst.ID)}
		m.timelines[inst.ID] = tl
	}
	// Mean inter-arrival gap is 3600/rate seconds (Poisson arrivals).
	lambda := rate / 3600
	for tl.last <= afterSec {
		gap := -math.Log(uniform01(&tl.rng)) / lambda
		tl.last += gap
		tl.events = append(tl.events, tl.last)
	}
	for _, t := range tl.events {
		if t > afterSec {
			return t, true
		}
	}
	// Unreachable: the loop above extended the stream past afterSec.
	return tl.last, true
}

// streamSeed derives an instance's private PRNG state by folding its
// ID into the model seed (FNV-1a) and scrambling with splitmix64, so
// "gp.4x.spot#0" and "gp.4x.spot#1" get decorrelated streams.
func streamSeed(seed int64, id string) uint64 {
	h := hash.New()
	h.Bytes(id)
	return splitmix64(uint64(h) ^ uint64(seed))
}

// splitmix64 is the standard 64-bit finalizer; it doubles as the
// step function of the per-instance stream.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// uniform01 draws from (0, 1] — never 0, so -log stays finite — and
// advances the stream state.
func uniform01(state *uint64) float64 {
	*state = splitmix64(*state)
	// 53 mantissa bits; +1 shifts the support off exact zero.
	return (float64(*state>>11) + 1) / (1 << 53)
}
