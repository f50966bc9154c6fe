package synth

// Truth-table machinery for functions of up to six variables, packed
// into a single uint64 (bit b holds the output for input assignment b).
// Used by cut rewriting, refactoring and technology mapping.

// ttVarMasks[i] is the truth table of variable i over six variables.
var ttVarMasks = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// ttMask returns the mask of valid rows for n variables.
func ttMask(n int) uint64 {
	if n >= 6 {
		return ^uint64(0)
	}
	return uint64(1)<<(1<<uint(n)) - 1
}

// ttVar returns the truth table of variable i restricted to n vars.
func ttVar(i, n int) uint64 { return ttVarMasks[i] & ttMask(n) }

// ttNot complements a table over n vars.
func ttNot(tt uint64, n int) uint64 { return ^tt & ttMask(n) }

// cofactor0 returns the negative cofactor of tt with respect to var i,
// replicated so the result is still a full table.
func cofactor0(tt uint64, i int) uint64 {
	m := ttVarMasks[i]
	low := tt &^ m
	return low | low<<(1<<uint(i))
}

// cofactor1 returns the positive cofactor of tt w.r.t. var i.
func cofactor1(tt uint64, i int) uint64 {
	m := ttVarMasks[i]
	high := tt & m
	return high | high>>(1<<uint(i))
}

// ttDependsOn reports whether tt depends on variable i.
func ttDependsOn(tt uint64, i, n int) bool {
	return cofactor0(tt, i)&ttMask(n) != cofactor1(tt, i)&ttMask(n)
}

// cube is a product term: var i appears positively when pos bit i is
// set, negatively when neg bit i is set, and is absent otherwise.
type cube struct {
	pos, neg uint8
}

// isop computes an irredundant sum-of-products cover of the incompletely
// specified function [onset, onset|dc] over n variables using the
// Minato-Morreale recursion, appending the cubes to dst (callers in a
// loop pass the previous cover's storage, resliced to empty). The
// returned cubes cover at least onset and never intersect the offset.
func isop(dst []cube, onset, dc uint64, n int) []cube {
	onset &= ttMask(n)
	dc &= ttMask(n)
	dst, _ = isopRec(dst, onset, onset|dc, n, n)
	return dst
}

// isopRec appends to dst a cover for lower bound L and upper bound U
// (L subset U), recursing on the top variable, and returns it with the
// truth table it covers.
func isopRec(dst []cube, L, U uint64, topVar, n int) ([]cube, uint64) {
	if L == 0 {
		return dst, 0
	}
	if U == ttMask(n) {
		return append(dst, cube{}), ttMask(n)
	}
	// Find the top variable both bounds depend on.
	v := -1
	for i := topVar - 1; i >= 0; i-- {
		if ttDependsOn(L, i, n) || ttDependsOn(U, i, n) {
			v = i
			break
		}
	}
	if v < 0 {
		// L constant non-zero means U must be all ones, handled above;
		// reaching here means L == 0 on the care set.
		return append(dst, cube{}), ttMask(n)
	}
	L0, L1 := cofactor0(L, v), cofactor1(L, v)
	U0, U1 := cofactor0(U, v), cofactor1(U, v)

	// Cubes needed only in the negative (v=0) branch.
	neg := len(dst)
	dst, f0 := isopRec(dst, L0&^U1, U0, v, n)
	// Cubes needed only in the positive branch.
	pos := len(dst)
	dst, f1 := isopRec(dst, L1&^U0, U1, v, n)
	// Remaining onset must be covered by cubes free of v.
	free := len(dst)
	Lnew := (L0 &^ f0) | (L1 &^ f1)
	dst, fs := isopRec(dst, Lnew, U0&U1, v, n)

	// The three covers already sit in dst in their final order; the
	// branch cubes only lack their literal of v.
	for i := neg; i < pos; i++ {
		dst[i].neg |= 1 << uint(v)
	}
	for i := pos; i < free; i++ {
		dst[i].pos |= 1 << uint(v)
	}
	nv := ttNot(ttVar(v, n), n)
	pv := ttVar(v, n)
	return dst, f0&nv | f1&pv | fs
}
