// Package perf simulates hardware performance counters for the EDA
// engines. The paper characterized synthesis, placement, routing and
// STA with Linux perf on a 14-core Xeon E5-2680; this package replaces
// the physical counters with architectural simulators fed by the
// engines' actual memory-access and branch streams:
//
//   - a two-level set-associative LRU cache hierarchy (L1 + LLC),
//   - a gshare branch predictor with 2-bit saturating counters,
//   - scalar/vector (AVX) floating-point operation accounting,
//   - a cycle-level machine model that converts event counts plus a
//     parallelism profile into virtual runtime under a given vCPU count.
//
// Engines call the nil-safe Probe methods at the points where a real
// implementation would touch memory, branch on data, or issue FP math;
// the resulting rates (branch-miss %, cache-miss %, FP-op share) are
// the quantities plotted in the paper's Fig. 2.
package perf

import "fmt"

// Counters accumulates simulated hardware events.
type Counters struct {
	Instrs       uint64 // retired instruction estimate
	Branches     uint64
	BranchMisses uint64
	Loads        uint64
	Stores       uint64
	L1Hits       uint64
	L1Misses     uint64
	LLCHits      uint64
	LLCMisses    uint64
	// LLCPrefetched counts the subset of LLCMisses issued by sequential
	// sweeps (LoadRange), whose DRAM latency hardware stride prefetchers
	// largely hide.
	LLCPrefetched uint64
	FPScalar      uint64 // scalar floating-point operations
	FPVector      uint64 // vectorizable (AVX) floating-point operations
}

// Add accumulates other into c.
func (c *Counters) Add(other *Counters) {
	c.Instrs += other.Instrs
	c.Branches += other.Branches
	c.BranchMisses += other.BranchMisses
	c.Loads += other.Loads
	c.Stores += other.Stores
	c.L1Hits += other.L1Hits
	c.L1Misses += other.L1Misses
	c.LLCHits += other.LLCHits
	c.LLCMisses += other.LLCMisses
	c.LLCPrefetched += other.LLCPrefetched
	c.FPScalar += other.FPScalar
	c.FPVector += other.FPVector
}

// BranchMissPct returns branch misses as a percentage of branches, the
// metric of the paper's Fig. 2a.
func (c *Counters) BranchMissPct() float64 {
	if c.Branches == 0 {
		return 0
	}
	return 100 * float64(c.BranchMisses) / float64(c.Branches)
}

// CacheMissPct returns LLC misses as a percentage of cache references
// (accesses that missed L1), matching perf's cache-misses /
// cache-references ratio plotted in the paper's Fig. 2b.
func (c *Counters) CacheMissPct() float64 {
	refs := c.L1Misses
	if refs == 0 {
		return 0
	}
	return 100 * float64(c.LLCMisses) / float64(refs)
}

// FPVectorPct returns AVX floating-point operations as a percentage of
// total instructions, the metric of the paper's Fig. 2c.
func (c *Counters) FPVectorPct() float64 {
	if c.Instrs == 0 {
		return 0
	}
	return 100 * float64(c.FPVector) / float64(c.Instrs)
}

// MemAccesses returns the total number of loads and stores.
func (c *Counters) MemAccesses() uint64 { return c.Loads + c.Stores }

func (c *Counters) String() string {
	return fmt.Sprintf("instr=%d br=%d (%.2f%% miss) mem=%d (%.1f%% LLC miss) fpvec=%.1f%%",
		c.Instrs, c.Branches, c.BranchMissPct(), c.MemAccesses(), c.CacheMissPct(), c.FPVectorPct())
}

// Phase is one profiled region of an EDA job: its event counts plus the
// parallelism structure the scheduler can exploit.
type Phase struct {
	Name string
	C    Counters
	// ParallelFraction is the fraction of the phase's work that can
	// proceed concurrently (Amdahl). Routing's independent grid regions
	// give it a high fraction; synthesis's iterative netlist rewriting
	// keeps it low.
	ParallelFraction float64
	// Chunks is the number of independent work units in the parallel
	// part; effective concurrency is min(vCPUs, Chunks).
	Chunks int
}

// Report is the profile of a complete EDA job run.
type Report struct {
	Job    string
	Phases []Phase
}

// Total returns the event counts summed over all phases.
func (r *Report) Total() Counters {
	var t Counters
	for i := range r.Phases {
		t.Add(&r.Phases[i].C)
	}
	return t
}

// AddPhase appends a phase to the report.
func (r *Report) AddPhase(p Phase) { r.Phases = append(r.Phases, p) }

// ApproxBytes estimates the report's in-memory footprint — the unit a
// byte-budgeted artifact cache accounts it in.
func (r *Report) ApproxBytes() int64 { return 64 + 160*int64(len(r.Phases)) }
