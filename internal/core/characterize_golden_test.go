package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var updateCharGolden = flag.Bool("update", false, "rewrite testdata/characterize.golden")

// TestCharacterizeGolden pins the numbers the Fig. 2 and Fig. 3
// experiments print: every profile's seconds and speedup from
// CharacterizeEval and the routing speedup curve, at full float64
// precision, for two evaluation designs.
func TestCharacterizeGolden(t *testing.T) {
	opts := CharacterizeOptions{Scale: 0.02}
	var sb strings.Builder
	g := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	for _, design := range []string{"dyn_node", "ibex"} {
		char, err := CharacterizeEval(lib, design, opts)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "%s cells=%d workscale=%s\n", design, char.Cells, g(char.WorkScale))
		for _, row := range char.Profiles {
			for _, p := range row {
				fmt.Fprintf(&sb, "%s %v vcpus=%d seconds=%s speedup=%s\n", design, p.Kind, p.VCPUs, g(p.Seconds), g(p.Speedup))
			}
		}
		curve, err := RoutingSpeedupCurve(lib, design, opts)
		if err != nil {
			t.Fatal(err)
		}
		for vi, s := range curve {
			fmt.Fprintf(&sb, "%s routing-curve vcpus=%d speedup=%s\n", design, vi+1, g(s))
		}
	}
	got := sb.String()
	path := filepath.Join("testdata", "characterize.golden")
	if *updateCharGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("line %d\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%d lines, want %d", len(gl), len(wl))
	}
}
