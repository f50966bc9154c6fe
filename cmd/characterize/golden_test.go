package main

import (
	"flag"
	"strings"
	"testing"

	"edacloud/internal/clitest"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestFigure2Golden pins the Fig. 2 family end to end: one
// characterization run of the smallest evaluation design, printed as
// the four per-job/per-vCPU tables (branch misses, cache misses,
// vector-FP share, extrapolated runtime). Every number is simulated
// and deterministic — the runtime table now rests on the *measured*
// parallel fractions of the cone-parallel synthesis passes, so a
// change in the partitioned rewrite path shows up here as a diff.
func TestFigure2Golden(t *testing.T) {
	bin := clitest.Build(t, "")
	got := clitest.Run(t, bin,
		"-design", "dyn_node",
		"-scale", "0.02",
		"-figure", "2",
	)
	clitest.Golden(t, "testdata/figure2.golden", got, *update)
}

// TestUnknownFigureRefused: a -figure value the command does not draw
// is an error naming the valid ones, not a silent empty run.
func TestUnknownFigureRefused(t *testing.T) {
	bin := clitest.Build(t, "")
	msg := clitest.RunFail(t, bin, "-figure", "4", "-design", "dyn_node", "-scale", "0.02")
	if !strings.Contains(msg, "2a, 2b, 2c, 2d, 2, 3, all") {
		t.Fatalf("stderr %q does not list the valid figures", msg)
	}
}

// TestBadScaleRefused: a -scale that is not finite, not positive or
// above designs.MaxScale (NaN and Inf used to build the smallest
// design and exit 0) is refused before anything is characterized.
func TestBadScaleRefused(t *testing.T) {
	bin := clitest.Build(t, "")
	for _, scale := range []string{"NaN", "Inf", "-Inf", "-1", "0", "1e9"} {
		msg := clitest.RunFail(t, bin, "-figure", "2a", "-design", "dyn_node", "-scale", scale)
		if !strings.Contains(msg, "outside (0, 1000]") {
			t.Errorf("-scale %s: stderr %q does not name the rule", scale, msg)
		}
	}
}

// TestStrayArgumentRefused: an argument that is not a flag stops Go's
// flag parsing, so every flag after it would be dropped silently; the
// command refuses it by name before characterizing anything.
func TestStrayArgumentRefused(t *testing.T) {
	bin := clitest.Build(t, "")
	msg := clitest.RunFail(t, bin, "-figure", "2b", "3", "-design", "dyn_node", "-scale", "0.02")
	if !strings.Contains(msg, `unexpected argument "3"`) {
		t.Fatalf("stderr %q does not name the stray argument", msg)
	}
}
