package main

import (
	"flag"
	"strings"
	"testing"

	"edacloud/internal/clitest"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestPredictGolden pins the Fig. 5 reproduction end to end on a
// small deterministic slice: dataset shape, per-application error
// summaries and the signed-error histograms. Dataset generation and
// GCN training are worker-count- and machine-independent, so the
// comparison is byte-exact; the -workers 4 rerun proves it.
func TestPredictGolden(t *testing.T) {
	bin := clitest.Build(t, "")
	args := []string{
		"-benchmarks", "6",
		"-recipes", "2",
		"-scale", "0.05",
		"-epochs", "8",
		"-hidden1", "12",
		"-hidden2", "8",
		"-fc", "8",
		"-seed", "5",
		"-bins", "6",
	}
	one := clitest.Run(t, bin, append(args, "-workers", "1")...)
	clitest.Golden(t, "testdata/predict.golden", one, *update)
	four := clitest.Run(t, bin, append(args, "-workers", "4")...)
	if one != four {
		t.Fatal("-workers 4 output diverged from -workers 1")
	}
}

// TestBadArgumentsRefused: a recipe or epoch count below one, a
// benchmark count below two (which silently ran on two), a
// held-out fraction outside [0, 1), a -scale outside (0,
// designs.MaxScale], a negative layer width (which panicked in mat) and
// a negative or non-finite -lr and a histogram bin count below one
// (which printed no histograms) are refused before the dataset is
// built — exit 1, nothing on stdout.
func TestBadArgumentsRefused(t *testing.T) {
	bin := clitest.Build(t, "")
	for _, tc := range []struct{ flag, value, want string }{
		{"-recipes", "-1", "need at least 1"},
		{"-recipes", "0", "need at least 1"},
		{"-benchmarks", "1", "needs at least 2"},
		{"-benchmarks", "-3", "needs at least 2"},
		{"-epochs", "-1", "need at least 1"},
		{"-epochs", "0", "need at least 1"},
		{"-test", "1.5", "must lie in [0, 1)"},
		{"-test", "1", "must lie in [0, 1)"},
		{"-test", "NaN", "must lie in [0, 1)"},
		{"-scale", "NaN", "outside (0, 1000]"},
		{"-scale", "Inf", "outside (0, 1000]"},
		{"-scale", "-1", "outside (0, 1000]"},
		{"-scale", "0", "outside (0, 1000]"},
		{"-scale", "1e9", "outside (0, 1000]"},
		{"-hidden1", "-1", "must not be negative"},
		{"-hidden2", "-1", "must not be negative"},
		{"-fc", "-3", "must not be negative"},
		{"-lr", "NaN", "finite and not negative"},
		{"-lr", "Inf", "finite and not negative"},
		{"-lr", "-1", "finite and not negative"},
		{"-bins", "0", "need at least 1"},
		{"-bins", "-4", "need at least 1"},
	} {
		msg := clitest.RunFail(t, bin, "-benchmarks", "2", "-scale", "0.02", tc.flag, tc.value)
		if !strings.Contains(msg, tc.want) {
			t.Errorf("%s %s: stderr %q does not name the rule", tc.flag, tc.value, msg)
		}
	}
}

// TestNothingHeldOut: -test 0 trains on every design and says there is
// nothing to score, instead of an error of 0 % over zero netlists (it
// used to hold one design out anyway).
func TestNothingHeldOut(t *testing.T) {
	bin := clitest.Build(t, "")
	out := clitest.Run(t, bin, "-benchmarks", "2", "-recipes", "1", "-scale", "0.02", "-epochs", "1",
		"-hidden1", "4", "-hidden2", "4", "-fc", "4", "-test", "0")
	if strings.Contains(out, "avg |error|") || strings.Count(out, "no test netlists: -test 0 holds no design out") != 4 {
		t.Fatalf("-test 0 output does not say that nothing is held out:\n%s", out)
	}
}

// TestStrayArgumentRefused: an argument that is not a flag ends flag
// parsing, which would drop every flag after it; it is refused by name
// before the dataset is built.
func TestStrayArgumentRefused(t *testing.T) {
	bin := clitest.Build(t, "")
	msg := clitest.RunFail(t, bin, "-benchmarks", "2", "-scale", "0.02", "extra", "-epochs", "1")
	if !strings.Contains(msg, `unexpected argument "extra"`) {
		t.Fatalf("stderr %q does not name the stray argument", msg)
	}
}
