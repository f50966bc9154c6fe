package mckp

// Scratch is the working storage of BatchOptimizeState's per-job DP
// solves: one slot per job, which that job's independent, warm and
// priced solves all build their tables in. A caller that re-solves at
// every event — serve.Engine re-plans at every arrival — keeps one
// Scratch for its lifetime and hands it in through BatchState.Scratch,
// so a re-plan grows the tables it needs instead of allocating them
// afresh. It holds no result: a selection never points into it.
type Scratch struct {
	slots []dpScratch
}

// jobSlots returns n slots, reusing every slot an earlier call grew.
// Slots past n keep their storage for a later, larger batch.
func (s *Scratch) jobSlots(n int) []dpScratch {
	for len(s.slots) < n {
		s.slots = append(s.slots, dpScratch{})
	}
	return s.slots[:n]
}

// dpScratch is one solveDP's working storage: the layers' steps and
// offsets, the class's item values and the items' read cursors.
type dpScratch struct {
	steps []step
	off   []int
	vals  []float64
	seen  []int
}

// reset empties the tables for a solve over the given number of
// classes, sizing fresh storage the way one solve usually needs it.
func (sc *dpScratch) reset(classes int) {
	if cap(sc.steps) == 0 {
		sc.steps = make([]step, 0, 8*(classes+1))
	}
	if cap(sc.off) < classes+2 {
		sc.off = make([]int, 0, classes+2)
	}
	sc.steps, sc.off = sc.steps[:0], sc.off[:0]
}

// items sizes vals and seen to one class of n items, every cursor at
// the first step.
func (sc *dpScratch) items(n int) {
	if cap(sc.vals) < n {
		sc.vals = make([]float64, n)
		sc.seen = make([]int, n)
	}
	sc.vals, sc.seen = sc.vals[:n], sc.seen[:n]
	clear(sc.seen)
}
