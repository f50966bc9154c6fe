package aig

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// readAllocBound is the most ReadASCII may allocate for an input of n
// bytes: the variable map's header-sized start and the scanner's
// buffer, plus a constant per byte read.
func readAllocBound(n int) uint64 { return 16<<20 + 256*uint64(n) }

// readMeasured runs ReadASCII on data and returns what it allocated.
func readMeasured(data []byte) (*Graph, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := ReadASCII(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	return g, after.TotalAlloc - before.TotalAlloc, err
}

// TestReadASCIIHostileHeaderBoundedMemory: header counts and literals
// that claim billions of variables, inputs or outputs cost memory in
// proportion to the bytes read — the reader once sized its variable map
// and output list from the header, and a 23-byte file ran the process
// out of memory — and malformed symbol lines are skipped, not panicked
// on.
func TestReadASCIIHostileHeaderBoundedMemory(t *testing.T) {
	cases := []struct {
		src    string
		accept bool
	}{
		{"aag 3000000000 0 0 0 0\n", true},
		{"aag 999999999999999999 0 0 0 0\n", true},
		{"aag 3000000000 3000000000 0 0 0\n", false},
		{"aag 0 0 0 3000000000 0\n", false},
		{"aag 3000000000 0 0 0 3000000000\n2 2 2\n", false},
		{"aag 6000000000 1 0 1 0\n11999999998\n11999999999\n", true},
		{"aag 6000000000 2 0 1 1\n11999999998\n2\n4\n4 3 11999999998\n", true},
		{"aag 1 1 0 0 0\n2\ni \n", true},
		{"aag 1 1 0 0 0\n2\ni-1 x\n", true},
		{"aag 1000000000000000000 0 0 0 0\n", false},
	}
	for _, c := range cases {
		g, alloc, err := readMeasured([]byte(c.src))
		if alloc > readAllocBound(len(c.src)) {
			t.Errorf("%q: allocated %d bytes", c.src, alloc)
		}
		if (err == nil) != c.accept {
			t.Errorf("%q: err = %v, want accepted %v", c.src, err, c.accept)
		}
		if err == nil && g.NumAnds() > 1 {
			t.Errorf("%q: %d ANDs from a file of at most one", c.src, g.NumAnds())
		}
	}
}

// FuzzReadASCII: the reader never panics, allocates in proportion to
// its input, and any graph it accepts survives WriteASCII and a second
// read with its fingerprint and name unchanged.
func FuzzReadASCII(f *testing.F) {
	f.Add([]byte("aag 3 2 0 1 1\n2\n4\n6\n6 2 4\ni0 a\ni1 b\no0 y\nc\nand2\n"))
	f.Add([]byte("aag 3000000000 0 0 0 0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, alloc, err := readMeasured(data)
		if alloc > readAllocBound(len(data)) {
			t.Fatalf("allocated %d bytes for a %d-byte input", alloc, len(data))
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := g.WriteASCII(&buf); err != nil {
			t.Fatalf("WriteASCII: %v", err)
		}
		h, err := ReadASCII(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-read of\n%s: %v", buf.Bytes(), err)
		}
		if h.Fingerprint() != g.Fingerprint() || h.Name != g.Name {
			t.Fatalf("round trip changed the graph:\n%s", buf.Bytes())
		}
	})
}

// TestReadASCIISparseVariables: a variable beyond the dense part of the
// reader's map is kept aside and still found after the dense part grows
// past it, and one never defined reads as False.
func TestReadASCIISparseVariables(t *testing.T) {
	far := maxDenseVars + 10
	src := fmt.Sprintf("aag %d 7 0 3 0\n%d\n2\n4\n6\n8\n10\n%d\n%d\n%d\n%d\n",
		3*maxDenseVars, 2*far, 2*(far+1), 2*far, 2*(far+1)+1, 2*(far+2)+1)
	g, err := ReadASCII(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	want := []Lit{g.Input(0), g.Input(6).Not(), True}
	for i, w := range want {
		if g.Output(i) != w {
			t.Errorf("output %d = %v, want %v", i, g.Output(i), w)
		}
	}
}
