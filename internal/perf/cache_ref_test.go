package perf

// refCache is true LRU the textbook way — a recency rank per way, a
// full scan per access, a rank rewrite per hit — and shares no code
// with Cache's recency stack. It is the reference TestCacheMatchesRankLRU
// replays every access against, and the algorithm every committed golden
// was first produced with, so do not "fix" it.
type refCache struct {
	lineShift uint
	setMask   uint64
	ways      int
	// tags[set*ways+way]; lru[set*ways+way] holds recency ranks where
	// 0 is most recent.
	tags  []uint64
	valid []bool
	lru   []uint8

	accesses uint64
	misses   uint64
}

func newRefCache(sizeBytes, ways, lineBytes int) *refCache {
	sets := sizeBytes / lineBytes / ways
	for sets&(sets-1) != 0 {
		sets &= sets - 1
	}
	lines := sets * ways
	var shift uint
	for 1<<shift < lineBytes {
		shift++
	}
	return &refCache{
		lineShift: shift,
		setMask:   uint64(sets - 1),
		ways:      ways,
		tags:      make([]uint64, lines),
		valid:     make([]bool, lines),
		lru:       make([]uint8, lines),
	}
}

func (c *refCache) Access(addr uint64) bool {
	c.accesses++
	line := addr >> c.lineShift
	set := int(line & c.setMask)
	base := set * c.ways

	hitWay := -1
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == line {
			hitWay = w
			break
		}
	}
	if hitWay >= 0 {
		c.touchHit(base, hitWay)
		return true
	}
	c.misses++
	// Choose the LRU victim (highest rank) or an invalid way.
	victim := 0
	var worst uint8
	for w := 0; w < c.ways; w++ {
		if !c.valid[base+w] {
			victim = w
			break
		}
		if c.lru[base+w] >= worst {
			worst = c.lru[base+w]
			victim = w
		}
	}
	c.tags[base+victim] = line
	c.valid[base+victim] = true
	c.touchInsert(base, victim)
	return false
}

// touchHit promotes a resident way to most-recently-used: every way
// that was more recent slides back one rank.
func (c *refCache) touchHit(base, way int) {
	old := c.lru[base+way]
	for w := 0; w < c.ways; w++ {
		if c.lru[base+w] < old {
			c.lru[base+w]++
		}
	}
	c.lru[base+way] = 0
}

// touchInsert installs a new line as most-recently-used: all other ways
// age by one rank (saturating), which keeps ranks a permutation once
// the set fills.
func (c *refCache) touchInsert(base, way int) {
	maxRank := uint8(c.ways - 1)
	for w := 0; w < c.ways; w++ {
		if w != way && c.lru[base+w] < maxRank {
			c.lru[base+w]++
		}
	}
	c.lru[base+way] = 0
}

func (c *refCache) Reset() {
	for i := range c.valid {
		c.valid[i] = false
		c.lru[i] = 0
		c.tags[i] = 0
	}
	c.accesses = 0
	c.misses = 0
}
