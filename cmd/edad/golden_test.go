package main

import (
	"flag"
	"strings"
	"testing"

	"edacloud/internal/clitest"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestReplayGolden pins the -replay mode's stdout end to end: the
// trace header, the rolling-horizon and independent reports, the
// comparison line and the PASS verdicts. Everything printed is
// simulated and deterministic (worker-count-independent by the serve
// engine's design), so the comparison is byte-exact after whitespace
// normalization.
func TestReplayGolden(t *testing.T) {
	bin := clitest.Build(t, "")
	got := clitest.Run(t, bin,
		"-replay",
		"-designs", "ibex,aes",
		"-scale", "0.03",
		"-fleet", "gp.1x=1,gp.2x=1,gp.8x=1,mem.1x=1,mem.2x=1,mem.8x=1",
		"-trace-seed", "7",
		"-trace-jobs", "12",
		"-rate", "0.02",
		"-burst", "0.3",
		"-slack", "3",
	)
	clitest.Golden(t, "testdata/replay.golden", got, *update)
}

// TestReplayHazardsGolden pins the preemptible-capacity serving path:
// a spot-extended catalog, a fleet holding spot twins, uniform spot
// hazards risk-adjusting admission, and the seeded revocation model
// armed on both engines' fleets.
func TestReplayHazardsGolden(t *testing.T) {
	bin := clitest.Build(t, "")
	got := clitest.Run(t, bin,
		"-replay",
		"-designs", "ibex,aes",
		"-scale", "0.03",
		"-fleet", "gp.1x=1,gp.2x=1,gp.8x=1,mem.1x=1,mem.2x=1,mem.8x=1,gp.8x.spot=1,mem.8x.spot=1",
		"-spot", "0.7",
		"-hazard-rate", "12",
		"-hazard-seed", "5",
		"-trace-seed", "7",
		"-trace-jobs", "12",
		"-rate", "0.02",
		"-burst", "0.3",
		"-slack", "3",
	)
	clitest.Golden(t, "testdata/replay_hazards.golden", got, *update)
}

// TestReplayCacheGolden pins the cache-aware serving path: templates
// carry their artifact chain keys, so repeat submissions of a design
// are planned as cache hits and the report counts them.
func TestReplayCacheGolden(t *testing.T) {
	bin := clitest.Build(t, "")
	got := clitest.Run(t, bin,
		"-replay",
		"-cache",
		"-designs", "ibex,aes",
		"-scale", "0.03",
		"-fleet", "gp.1x=1,gp.2x=1,gp.8x=1,mem.1x=1,mem.2x=1,mem.8x=1",
		"-trace-seed", "7",
		"-trace-jobs", "12",
		"-rate", "0.02",
		"-burst", "0.3",
		"-slack", "3",
	)
	clitest.Golden(t, "testdata/replay_cache.golden", got, *update)
}

// TestReplayGoldenWorkers re-runs the same replay with -workers 1 and
// -workers 8: the output must match the golden byte for byte — the
// serving layer's determinism contract.
func TestReplayGoldenWorkers(t *testing.T) {
	bin := clitest.Build(t, "")
	for _, w := range []string{"1", "8"} {
		got := clitest.Run(t, bin,
			"-replay",
			"-designs", "ibex,aes",
			"-scale", "0.03",
			"-fleet", "gp.1x=1,gp.2x=1,gp.8x=1,mem.1x=1,mem.2x=1,mem.8x=1",
			"-trace-seed", "7",
			"-trace-jobs", "12",
			"-rate", "0.02",
			"-burst", "0.3",
			"-slack", "3",
			"-workers", w,
		)
		clitest.Golden(t, "testdata/replay.golden", got, false)
	}
}

// TestBadArgumentsRefused: -replay is a boolean, so "-replay 5 -slack
// 3" used to stop parsing at 5 and replay deadline-free; a stray
// argument is refused by name. A negative or non-finite -slack (which
// replayed deadline-free, or failed mid-replay after printing the
// header) is refused too — both before any template is characterized,
// with nothing on stdout. -slack 0 stays the deadline-free replay. A
// negative or non-finite -hazard-rate (ignored before) is refused the
// same way.
func TestBadArgumentsRefused(t *testing.T) {
	bin := clitest.Build(t, "")
	msg := clitest.RunFail(t, bin, "-replay", "5", "-slack", "3", "-designs", "aes", "-scale", "0.02")
	if !strings.Contains(msg, `unexpected argument "5"`) {
		t.Errorf("stderr %q does not name the stray argument", msg)
	}
	for _, slack := range []string{"-1", "NaN", "Inf", "-Inf"} {
		msg := clitest.RunFail(t, bin, "-replay", "-slack", slack, "-designs", "aes", "-scale", "0.02")
		if !strings.Contains(msg, "finite and not negative") {
			t.Errorf("-slack %s: stderr %q does not name the rule", slack, msg)
		}
	}
	for _, rate := range []string{"-5", "NaN", "Inf"} {
		msg := clitest.RunFail(t, bin, "-replay", "-hazard-rate", rate, "-designs", "aes", "-scale", "0.02")
		if !strings.Contains(msg, "finite and not negative") {
			t.Errorf("-hazard-rate %s: stderr %q does not name the rule", rate, msg)
		}
	}
	// A finite slack whose deadlines pass the engine's clock is refused
	// when the trace is drawn, before the header prints.
	msg = clitest.RunFail(t, bin, "-replay", "-slack", "1e300", "-designs", "aes", "-scale", "0.02")
	if !strings.Contains(msg, "2^53 s clock") {
		t.Errorf("-slack 1e300: stderr %q does not name the clock bound", msg)
	}
}
