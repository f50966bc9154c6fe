package main

import (
	"flag"
	"strings"
	"testing"

	"edacloud/internal/clitest"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestExploreGolden pins one full exploration end to end — the round
// spends, the summary counts and the Pareto front — and proves the
// determinism contract the autopilot advertises: the same seed yields
// byte-identical output at -workers 1 and -workers 8.
func TestExploreGolden(t *testing.T) {
	bin := clitest.Build(t, "")
	args := []string{
		"-design", "dyn_node",
		"-seed", "3",
		"-rounds", "3",
		"-population", "6",
		"-eta", "3",
	}
	one := clitest.Run(t, bin, append(args, "-workers", "1")...)
	clitest.Golden(t, "testdata/explore.golden", one, *update)
	eight := clitest.Run(t, bin, append(args, "-workers", "8")...)
	if one != eight {
		t.Fatal("-workers 8 output diverged from -workers 1")
	}
}

// TestExploreCacheGolden pins the cache-enabled mode: the same search
// with a shared artifact store reports the dedup hit rate and a bill
// no larger than the blind run's — the "more trials per simulated
// dollar" headline in its CLI form.
func TestExploreCacheGolden(t *testing.T) {
	bin := clitest.Build(t, "")
	got := clitest.Run(t, bin,
		"-design", "dyn_node",
		"-seed", "3",
		"-rounds", "3",
		"-population", "6",
		"-eta", "3",
		"-cache",
	)
	clitest.Golden(t, "testdata/explore_cache.golden", got, *update)
}

// TestBadArgumentsRefused: a negative -max-passes (which panicked in
// the sampler), -population, -eta, -rounds or -budget, and an -epochs
// below one, are refused by name before the predictor trains — exit 1,
// nothing on stdout.
func TestBadArgumentsRefused(t *testing.T) {
	bin := clitest.Build(t, "")
	for _, tc := range []struct{ flag, value, want string }{
		{"-max-passes", "-2", "must not be negative"},
		{"-population", "-3", "must not be negative"},
		{"-eta", "-1", "must not be negative"},
		{"-rounds", "-1", "must not be negative"},
		{"-budget", "-0.5", "must not be negative"},
		{"-budget", "NaN", "must not be negative"},
		{"-epochs", "-1", "need at least 1"},
		{"-epochs", "0", "need at least 1"},
	} {
		msg := clitest.RunFail(t, bin, "-design", "dyn_node", tc.flag, tc.value)
		if !strings.Contains(msg, tc.want) {
			t.Errorf("%s %s: stderr %q does not name the rule", tc.flag, tc.value, msg)
		}
	}
}

// TestStrayArgumentRefused: an argument that is not a flag ends flag
// parsing, which would drop every flag after it; it is refused by name
// before the predictor trains.
func TestStrayArgumentRefused(t *testing.T) {
	bin := clitest.Build(t, "")
	msg := clitest.RunFail(t, bin, "-design", "dyn_node", "-rounds", "3", "6", "-population", "6")
	if !strings.Contains(msg, `unexpected argument "6"`) {
		t.Fatalf("stderr %q does not name the stray argument", msg)
	}
}
