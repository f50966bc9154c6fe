package perf

// BranchPredictor is a gshare predictor: a global history register XORed
// with the branch site hashes into a table of 2-bit saturating
// counters. Data-dependent branches (routing's design-rule checks,
// search-frontier comparisons) defeat it in proportion to their
// irregularity, which is exactly the effect behind the paper's Fig. 2a.
type BranchPredictor struct {
	table   []uint8 // 2-bit counters, 0..3; >=2 predicts taken
	mask    uint64
	history uint64
}

// NewBranchPredictor builds a gshare predictor with 2^bits counters.
func NewBranchPredictor(bits uint) *BranchPredictor {
	if bits == 0 || bits > 24 {
		panic("perf: predictor size out of range")
	}
	size := 1 << bits
	bp := &BranchPredictor{
		table: make([]uint8, size),
		mask:  uint64(size - 1),
	}
	// Weakly taken initial state, the usual convention.
	for i := range bp.table {
		bp.table[i] = 2
	}
	return bp
}

// Record simulates one conditional branch at the given site identifier
// with the actual outcome, updating predictor state, and reports
// whether the prediction was correct.
func (bp *BranchPredictor) Record(site uint64, taken bool) bool {
	ctr := &bp.table[(site^bp.history)&bp.mask]
	correct := (*ctr >= 2) == taken
	h := bp.history << 1
	if taken {
		h |= 1
		if *ctr < 3 {
			*ctr++
		}
	} else if *ctr > 0 {
		*ctr--
	}
	bp.history = h & bp.mask
	return correct
}
