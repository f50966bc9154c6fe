// Package hash is the repo's one FNV-1a 64 hasher: every artifact
// fingerprint, cache chain key and seeded stream derives from it, so
// identities computed in different packages agree byte for byte. It is
// a plain value type rather than hash/fnv behind an interface because
// fingerprints walk million-node graphs. Values are fed as fixed-width
// little-endian words, so a hash covers structure, not formatting.
package hash

import "math"

const (
	offset = 14695981039346656037
	prime  = 1099511628211
)

// Hash is a running FNV-1a 64 state; its value is the digest so far.
type Hash uint64

// New returns the FNV-1a offset basis.
func New() Hash { return offset }

// Word feeds v's eight bytes, least significant first.
func (h *Hash) Word(v uint64) {
	x := uint64(*h)
	for i := 0; i < 8; i++ {
		x ^= (v >> (8 * i)) & 0xff
		x *= prime
	}
	*h = Hash(x)
}

// Bytes feeds s's bytes with no framing — one whole-input digest.
func (h *Hash) Bytes(s string) {
	x := uint64(*h)
	for i := 0; i < len(s); i++ {
		x ^= uint64(s[i])
		x *= prime
	}
	*h = Hash(x)
}

// Str feeds s length-prefixed, so adjacent strings cannot run together.
func (h *Hash) Str(s string) {
	h.Word(uint64(len(s)))
	h.Bytes(s)
}

// F64 feeds v's IEEE-754 bits.
func (h *Hash) F64(v float64) { h.Word(math.Float64bits(v)) }

// Int feeds v sign-extended to 64 bits.
func (h *Hash) Int(v int) { h.Word(uint64(int64(v))) }
