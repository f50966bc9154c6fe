package perf

// Cache is a set-associative cache with true-LRU replacement, simulated
// at line granularity. It is deliberately simple — no prefetching, no
// write-allocate distinction — because the paper's characterization
// relies on miss-rate differences between algorithms, which first-order
// capacity and conflict behaviour already exposes.
//
// Each set is a recency stack: slot 0 holds the most recently used
// line, the last slot the next victim. Which physical way holds a line
// is not modelled — only the hit/miss outcome of every access is
// observable, and that depends on recency order alone.
type Cache struct {
	lineShift uint
	setMask   uint64
	ways      int
	// lines[set*ways:(set+1)*ways] is the set's stack of line+1, most
	// recent first; 0 marks an empty slot, and empty slots sit at the
	// tail. (The +1 gives up the topmost line of the address space,
	// which no synthetic address stream reaches.)
	lines []uint64
}

// NewCache builds a cache of (at most) sizeBytes with the given
// associativity and line size. The set count is rounded down to the
// nearest power of two so that indexing stays a mask; VM LLC slices
// (2 MiB x vCPUs for 1..8 vCPUs) therefore map to the closest
// realizable geometry. NewCache panics on non-positive geometry, a
// non-power-of-two line size, or fewer than ways*lineBytes bytes.
func NewCache(sizeBytes, ways, lineBytes int) *Cache {
	sets := cacheSets(sizeBytes, ways, lineBytes)
	var shift uint
	for 1<<shift < lineBytes {
		shift++
	}
	if 1<<shift != lineBytes {
		panic("perf: line size must be a power of two")
	}
	return &Cache{
		lineShift: shift,
		setMask:   uint64(sets - 1),
		ways:      ways,
		lines:     make([]uint64, sets*ways),
	}
}

// cacheSets validates a geometry and returns its realised set count.
func cacheSets(sizeBytes, ways, lineBytes int) int {
	if sizeBytes <= 0 || ways <= 0 || lineBytes <= 0 {
		panic("perf: non-positive cache geometry")
	}
	if ways > 255 {
		panic("perf: associativity too large")
	}
	sets := sizeBytes / lineBytes / ways
	if sets == 0 {
		panic("perf: cache smaller than one set")
	}
	for sets&(sets-1) != 0 {
		sets &= sets - 1 // drop lowest set bit until a power of two remains
	}
	return sets
}

// Access simulates a reference to addr and reports whether it hit.
func (c *Cache) Access(addr uint64) bool {
	key, base, hit := c.mru(addr)
	return hit || c.walk(key, base)
}

// mru starts a reference to addr and reports whether it re-hits the MRU
// line of its set, which moves nothing. Otherwise walk(key, base)
// finishes the access. The split keeps mru small enough to inline into
// a caller's loop, the common case.
func (c *Cache) mru(addr uint64) (key uint64, base int, hit bool) {
	line := addr >> c.lineShift
	base = int(line&c.setMask) * c.ways
	return line + 1, base, c.lines[base] == line+1
}

// walk finishes a reference to key, which is not the MRU line of the
// set starting at base.
func (c *Cache) walk(key uint64, base int) bool {
	set := c.lines[base : base+c.ways]
	// Walk down the stack pushing every line one slot back. Finding key
	// at slot k ends the walk with slots 0..k-1 aged by one and slot 0
	// free for it; reaching the end has dropped the LRU line (or an
	// empty slot) off the tail.
	prev := set[0]
	for k := 1; k < len(set); k++ {
		cur := set[k]
		set[k] = prev
		if cur == key {
			set[0] = key
			return true
		}
		prev = cur
	}
	set[0] = key
	return false
}
