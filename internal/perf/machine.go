package perf

// Machine is a cycle-level model of one VM configuration. It converts
// the event counts of a profiled Phase into virtual runtime, applying:
//
//   - a base IPC for retired instructions,
//   - AVX lane compression for vectorizable FP work (when the VM's
//     underlying processor exposes AVX),
//   - stall penalties for branch mispredictions, L1 misses (serviced by
//     the LLC) and LLC misses (serviced by DRAM),
//   - Amdahl scaling of the parallel fraction over min(vCPUs, chunks)
//     with a per-core synchronization tax,
//   - memory-bandwidth contention that inflates DRAM latency as more
//     vCPUs issue misses concurrently.
//
// A VM of VCPUs vCPUs is those cores of one host with no co-tenants
// competing for them, as in the paper's characterization.
type Machine struct {
	ClockGHz float64
	BaseIPC  float64

	BranchPenalty  float64 // cycles per mispredicted branch
	L1MissPenalty  float64 // cycles to reach the LLC
	LLCMissPenalty float64 // cycles to reach DRAM

	VCPUs    int
	AVX      bool
	AVXLanes int // FP lanes when AVX is available (4 for 256-bit doubles)

	// SyncTax is the fractional overhead added per extra active core in
	// parallel sections (thread wakeup, work stealing, barriers).
	SyncTax float64
	// BWContention inflates the DRAM penalty per extra active vCPU.
	BWContention float64
	// PrefetchEff is the fraction of sequential-sweep (LLCPrefetched)
	// miss latency hidden by hardware stride prefetchers.
	PrefetchEff float64
	// WorkScale linearly scales the resulting runtime; characterization
	// uses it to extrapolate a reduced-size simulation to full design
	// size. 0 means 1.
	WorkScale float64
}

// Xeon14 returns the machine model of the paper's characterization
// host — a 3.3 GHz Xeon E5-2680-class core — restricted to the given
// vCPU count, with AVX available.
func Xeon14(vcpus int) Machine {
	return Machine{
		ClockGHz:       3.3,
		BaseIPC:        2.0,
		BranchPenalty:  14,
		L1MissPenalty:  12,
		LLCMissPenalty: 180,
		VCPUs:          vcpus,
		AVX:            true,
		AVXLanes:       4,
		SyncTax:        0.04,
		BWContention:   0.06,
		PrefetchEff:    0.75,
	}
}

// WithoutAVX returns the model with AVX disabled (general-purpose
// instances backed by older processors in the instance catalog).
func (m Machine) WithoutAVX() Machine {
	m.AVX = false
	return m
}

// PhaseCycles returns the virtual cycle cost of one phase on this
// machine, after parallel scaling. Each product that meets an add is
// rounded by an explicit float64 conversion, so arm64 cannot fuse the
// two and move a runtime off amd64's.
func (m Machine) PhaseCycles(p Phase) float64 {
	c := &p.C

	instrs := float64(c.Instrs)
	if m.AVX && m.AVXLanes > 1 {
		// Vector FP retires in packed groups of AVXLanes.
		instrs -= float64(float64(c.FPVector) * (1 - 1/float64(m.AVXLanes)))
	}
	compute := instrs / m.BaseIPC

	vcpus := m.VCPUs
	if vcpus < 1 {
		vcpus = 1
	}
	active := vcpus
	if p.Chunks < active {
		active = p.Chunks
	}
	if active < 1 {
		active = 1
	}

	effectiveLLCMisses := float64(c.LLCMisses) - float64(m.PrefetchEff*float64(c.LLCPrefetched))
	if effectiveLLCMisses < 0 {
		effectiveLLCMisses = 0
	}
	stalls := float64(float64(c.BranchMisses)*m.BranchPenalty) +
		float64(float64(c.L1Misses)*m.L1MissPenalty) +
		float64(effectiveLLCMisses*m.LLCMissPenalty)

	total := compute + stalls
	serial := float64(total * (1 - p.ParallelFraction))
	parallel := total * p.ParallelFraction
	if active > 1 {
		// Concurrent execution pays a synchronization tax and shares
		// memory bandwidth; both grow with active cores but stay well
		// below the 1/active gain for realistic core counts.
		parallel = parallel / float64(active) *
			(1 + float64(m.SyncTax*float64(active-1))) *
			(1 + float64(m.BWContention*float64(active-1)))
	}
	return serial + parallel
}

// PhaseSeconds converts PhaseCycles to wall-clock seconds including
// work scaling.
func (m Machine) PhaseSeconds(p Phase) float64 {
	scale := m.WorkScale
	if scale == 0 {
		scale = 1
	}
	secs := m.PhaseCycles(p) / (m.ClockGHz * 1e9)
	return secs * scale
}

// Seconds returns the virtual runtime of a full report on this machine.
func (m Machine) Seconds(r *Report) float64 {
	var t float64
	for _, p := range r.Phases {
		t += m.PhaseSeconds(p)
	}
	return t
}
