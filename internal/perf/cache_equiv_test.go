package perf

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestCacheMatchesRankLRU replays long mixed address streams through
// the recency-stack Cache and the rank-array reference and demands the
// same hit/miss outcome on every single access. This is the equivalence
// every simulated counter, bill and golden rests on: the two are both
// true LRU per set, so they may differ only in which physical way holds
// a line, which nothing observes.
func TestCacheMatchesRankLRU(t *testing.T) {
	geometries := []struct {
		size, ways, line int
	}{
		{4 << 10, 1, 64},     // direct-mapped
		{6 << 10, 3, 64},     // odd associativity, 32 sets
		{32 << 10, 8, 64},    // the default L1
		{2560 << 10, 16, 64}, // the default LLC slice: 2560 sets round down to 2048
		{96 * 64, 2, 64},     // 48 sets round down to 32
		{16 << 10, 4, 32},    // short lines
	}
	accesses := 1 << 20
	if testing.Short() {
		accesses = 1 << 17
	}
	for gi, geo := range geometries {
		t.Run(fmt.Sprintf("%dB_%dway_%dline", geo.size, geo.ways, geo.line), func(t *testing.T) {
			c := NewCache(geo.size, geo.ways, geo.line)
			ref := newRefCache(geo.size, geo.ways, geo.line)
			if len(c.lines) != len(ref.tags) {
				t.Fatalf("geometry differs: %d lines vs reference %d", len(c.lines), len(ref.tags))
			}
			rng := rand.New(rand.NewSource(int64(41 + gi)))
			capacity := uint64(len(c.lines) * geo.line)
			const region = uint64(1) << 34
			hot := uint64(0) // sliding base of the hot window
			for i := 0; i < accesses; i++ {
				if i == accesses/2 {
					c.Reset()
					ref.Reset()
				}
				var addr uint64
				switch r := rng.Intn(100); {
				case r < 55: // hot window about half the cache, re-hit heavily
					if rng.Intn(4096) == 0 {
						hot = uint64(rng.Int63n(int64(4 * capacity)))
					}
					addr = region + hot + uint64(rng.Int63n(int64(capacity/2+1)))
				case r < 70: // immediate re-reference of a neighbour on the same line
					addr = region + hot + uint64(rng.Intn(geo.line))
				case r < 90: // wide random: four times the capacity
					addr = 2*region + uint64(rng.Int63n(int64(4*capacity)))
				case r < 97: // far regions that alias into the same sets
					addr = uint64(3+rng.Intn(5))*region + uint64(rng.Intn(8))*capacity + uint64(rng.Intn(256))
				default: // a one-off cold line
					addr = 1<<40 + uint64(i)*uint64(geo.line)
				}
				got, want := c.Access(addr), ref.Access(addr)
				if got != want {
					t.Fatalf("access %d addr %#x: hit=%v, reference hit=%v", i, addr, got, want)
				}
			}
			ga, gm := c.Stats()
			if ga != ref.accesses || gm != ref.misses {
				t.Fatalf("stats %d/%d vs reference %d/%d", ga, gm, ref.accesses, ref.misses)
			}
			if gm == 0 || gm == ga {
				t.Fatalf("degenerate stream: %d misses of %d", gm, ga)
			}
		})
	}
}
