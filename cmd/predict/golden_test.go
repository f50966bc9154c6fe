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

// TestBadArgumentsRefused: a recipe or epoch count below one or a
// held-out fraction outside [0, 1) is refused before the dataset is
// built — exit 1, nothing on stdout.
func TestBadArgumentsRefused(t *testing.T) {
	bin := clitest.Build(t, "")
	for _, tc := range []struct{ flag, value, want string }{
		{"-recipes", "-1", "need at least 1"},
		{"-recipes", "0", "need at least 1"},
		{"-epochs", "-1", "need at least 1"},
		{"-epochs", "0", "need at least 1"},
		{"-test", "1.5", "must lie in [0, 1)"},
		{"-test", "1", "must lie in [0, 1)"},
		{"-test", "NaN", "must lie in [0, 1)"},
	} {
		msg := clitest.RunFail(t, bin, "-benchmarks", "2", "-scale", "0.02", tc.flag, tc.value)
		if !strings.Contains(msg, tc.want) {
			t.Errorf("%s %s: stderr %q does not name the rule", tc.flag, tc.value, msg)
		}
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
