package hash

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// TestMatchesStdlibFNV pins every feeder against hash/fnv over the
// same bytes: words little-endian, Str length-prefixed, Bytes bare.
func TestMatchesStdlibFNV(t *testing.T) {
	le := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	want := fnv.New64a()
	got := New()
	check := func(step string) {
		t.Helper()
		if uint64(got) != want.Sum64() {
			t.Fatalf("after %s: %#016x, hash/fnv says %#016x", step, uint64(got), want.Sum64())
		}
	}
	check("New")

	for _, v := range []uint64{0, 1, 0xff, 0x0102030405060708, math.MaxUint64} {
		got.Word(v)
		want.Write(le(v))
		check("Word")
	}
	for _, s := range []string{"", "a", "synthesis", "gp.4x.spot#1"} {
		got.Str(s)
		want.Write(le(uint64(len(s))))
		want.Write([]byte(s))
		check("Str")
		got.Bytes(s)
		want.Write([]byte(s))
		check("Bytes")
	}
	got.F64(-1.5)
	want.Write(le(math.Float64bits(-1.5)))
	check("F64")
	got.Int(-2)
	want.Write(le(0xfffffffffffffffe))
	check("Int")
}
