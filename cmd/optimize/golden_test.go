package main

import (
	"flag"
	"strings"
	"testing"

	"edacloud/internal/clitest"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestSpotGolden pins the -spot mode's three-way comparison: the
// on-demand, naive-spot and risk-adjusted plans, their executions
// under the same seeded revocation timelines, and the closing verdict.
// The scenario is calibrated so the naive gamble misses one deadline
// and loses one job to the attempt cap while the risk-adjusted plan
// meets everything for less money — the PR's headline behavior, pinned
// byte-exactly.
func TestSpotGolden(t *testing.T) {
	bin := clitest.Build(t, "")
	got := clitest.Run(t, bin,
		"-spot",
		"-designs", "aes,jpeg",
		"-slack", "1.15",
		"-hazard-seed", "2",
		"-hazard-rate", "240",
		"-scale", "0.03",
	)
	clitest.Golden(t, "testdata/spot.golden", got, *update)
}

// TestBatchGolden pins the -batch mode's stdout end to end: the
// co-optimized plans, the forecast-vs-simulation table (which the
// command itself verifies for an exact match), and the three-way
// execution comparison. Every printed value is simulated and
// deterministic, so the comparison is byte-exact after whitespace
// normalization.
func TestBatchGolden(t *testing.T) {
	bin := clitest.Build(t, "")
	got := clitest.Run(t, bin,
		"-batch",
		"-designs", "ibex,aes,ibex",
		"-fleet", "gp.1x=1,gp.8x=1,mem.1x=1,mem.8x=1",
		"-slack", "1.3",
		"-scale", "0.03",
	)
	clitest.Golden(t, "testdata/batch.golden", got, *update)
}

// TestBatchCacheGolden pins the -cache batch: repeated designs are
// planned as cache hits (their plan rows collapse to probe time at
// zero cost), the forecast still matches the simulation exactly, and
// the closing comparison shows the cache-aware joint plan billing
// less than the cache-blind one priced over the same store. The tight
// 1.02x slack is what makes the comparison strict: the blind solve
// must buy speed for stages the store actually serves.
func TestBatchCacheGolden(t *testing.T) {
	bin := clitest.Build(t, "")
	got := clitest.Run(t, bin,
		"-batch",
		"-cache",
		"-designs", "ibex,aes,ibex,aes",
		"-fleet", "gp.1x=1,gp.8x=1,mem.1x=1,mem.8x=1",
		"-slack", "1.02",
		"-scale", "0.03",
	)
	clitest.Golden(t, "testdata/batch_cache.golden", got, *update)
}

// TestCacheOutsideBatchRefused: -cache is a -batch option, and a run
// that pairs it with another mode is refused before that mode does any
// work — exit 1, nothing on stdout.
func TestCacheOutsideBatchRefused(t *testing.T) {
	bin := clitest.Build(t, "")
	for _, mode := range []string{"-execute", "-spot", "-table1"} {
		msg := clitest.RunFail(t, bin, mode, "-cache", "-design", "dyn_node", "-designs", "dyn_node", "-scale", "0.02")
		if !strings.Contains(msg, "-cache applies to -batch") {
			t.Errorf("%s -cache: stderr %q does not name the rule", mode, msg)
		}
	}
}

// TestBadArgumentsRefused: -batch is a boolean, so "-batch 3 -slack
// 1.5" used to stop parsing at 3 and plan at the default slack; a
// stray argument is refused by name. A -slack that is not positive and
// finite (NaN once failed only after characterizing every design, and
// 0 planned deadline-free) is refused too, and so are a negative
// -deadline (which planned for the default midway deadline) and a
// negative or non-finite -minbill or -hazard-rate — all before any
// characterization, with nothing on stdout.
func TestBadArgumentsRefused(t *testing.T) {
	bin := clitest.Build(t, "")
	msg := clitest.RunFail(t, bin, "-batch", "3", "-slack", "1.5", "-designs", "dyn_node", "-scale", "0.02")
	if !strings.Contains(msg, `unexpected argument "3"`) {
		t.Errorf("stderr %q does not name the stray argument", msg)
	}
	for _, tc := range []struct{ mode, flag, value, want string }{
		{"-batch", "-slack", "NaN", "must be positive and finite"},
		{"-batch", "-slack", "0", "must be positive and finite"},
		{"-batch", "-slack", "-1", "must be positive and finite"},
		{"-batch", "-slack", "Inf", "must be positive and finite"},
		{"-batch", "-slack", "-Inf", "must be positive and finite"},
		{"-execute", "-deadline", "-5", "must not be negative"},
		{"-execute", "-minbill", "-1", "finite and not negative"},
		{"-execute", "-minbill", "NaN", "finite and not negative"},
		{"-spot", "-hazard-rate", "-1", "finite and not negative"},
		{"-spot", "-hazard-rate", "Inf", "finite and not negative"},
	} {
		msg := clitest.RunFail(t, bin, tc.mode, tc.flag, tc.value, "-designs", "dyn_node", "-design", "dyn_node", "-scale", "0.02")
		if !strings.Contains(msg, tc.want) {
			t.Errorf("%s %s %s: stderr %q does not name the rule", tc.mode, tc.flag, tc.value, msg)
		}
	}
}
