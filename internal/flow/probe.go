package flow

import "edacloud/internal/perf"

// NewJobProbe builds the per-stage instrumentation for a VM of the
// given vCPU count profiling a design of roughly estCells instances.
func NewJobProbe(vcpus, estCells int) *perf.Probe { return NewSweepProbe(estCells, vcpus) }

// NewSweepProbe builds one probe that models a VM per entry of vcpus
// at once: the vCPU count reaches the simulation only as last-level
// cache capacity, so one engine run feeds one L1, one branch predictor
// and an LLC model per VM size (perf.Probe.ReportFor reads a size's
// report back). Cache capacities are sized relative to the design —
// 2.5 bytes of LLC slice per cell, mirroring the paper testbed's ratio
// of a 200k-instance design to a 2.5 MiB-per-core LLC — so
// working-set-to-cache ratios (the quantity behind its Fig. 2b) carry
// over from full-size runs to the reduced-scale simulation. The LLC
// gets one slice per vCPU, which is how cloud VMs inherit cache, and
// each engine's bounded hot window is half a slice.
func NewSweepProbe(estCells int, vcpus ...int) *perf.Probe {
	cfg := perf.DefaultProbeConfig()
	slice := estCells * 5 / 2
	if slice < 4<<10 {
		slice = 4 << 10
	}
	if slice > 8<<20 {
		slice = 8 << 20
	}
	cfg.LLCBytes = slice
	l1 := slice / 8
	if l1 < 512 {
		l1 = 512
	}
	if l1 > 32<<10 {
		l1 = 32 << 10
	}
	cfg.L1Bytes = l1
	p := perf.NewProbe(cfg.WithLLCSlices(vcpus...))
	// Three hot regions per engine must together fit one LLC slice, as
	// real working windows fit a single core's cache.
	p.HotBytes = uint64(slice / 6)
	return p
}

// EstimateCells predicts mapped instance count from AIG size (the
// mapper covers roughly two AND nodes per cell).
func EstimateCells(ands int) int {
	c := ands / 2
	if c < 64 {
		c = 64
	}
	return c
}
