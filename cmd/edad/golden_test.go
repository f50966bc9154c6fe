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
// same way, and so are a -hazard-rate above cloud.MaxHazardPerHour and
// a -trace-jobs, -rate or -burst the trace generator cannot draw.
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
	// A hazard rate past cloud.MaxHazardPerHour (1e8/h once exhausted
	// memory memoizing revocations), a trace longer than
	// serve.MaxTraceJobs (a billion once died allocating it) and a
	// non-finite -rate or -burst (NaN once failed mid-replay) are
	// refused the same way. So are a negative or NaN -spot (which
	// replayed without spot capacity) and a -hazard-rate without -spot
	// (which printed hazards over a fleet with nothing to revoke).
	for _, tc := range []struct{ flag, value, want string }{
		{"-hazard-rate", "1e8", "MaxHazardPerHour"},
		{"-trace-jobs", "1000000000", "MaxTraceJobs"},
		{"-rate", "NaN", "rate NaN is not finite"},
		{"-rate", "Inf", "rate +Inf is not finite"},
		{"-burst", "NaN", "burstiness NaN is not finite"},
		{"-spot", "-0.3", "finite and not negative"},
		{"-spot", "NaN", "finite and not negative"},
		{"-hazard-rate", "12", "needs -spot"},
	} {
		msg := clitest.RunFail(t, bin, "-replay", tc.flag, tc.value, "-designs", "aes", "-scale", "0.02")
		if !strings.Contains(msg, tc.want) {
			t.Errorf("%s %s: stderr %q does not name the rule", tc.flag, tc.value, msg)
		}
	}
	// A tenant weight that is not finite and positive, a tenant named
	// twice and a design named twice are refused before any template
	// is characterized (serve.New refused them after the replay header).
	for _, tc := range []struct{ flag, value, want string }{
		{"-tenants", "acme=0", "finite positive weight"},
		{"-tenants", "acme=NaN", "finite positive weight"},
		{"-tenants", "acme=-1", "finite positive weight"},
		{"-tenants", "acme=1,acme=2", `"acme" declared twice`},
		{"-designs", "ibex,ibex", `"ibex" is named twice`},
	} {
		msg := clitest.RunFail(t, bin, "-replay", "-designs", "aes", "-scale", "0.02", tc.flag, tc.value)
		if !strings.Contains(msg, tc.want) {
			t.Errorf("%s %s: stderr %q does not name the rule", tc.flag, tc.value, msg)
		}
	}
	// A -scale that is not finite, not positive or above
	// designs.MaxScale is refused before any template is characterized.
	for _, scale := range []string{"NaN", "Inf", "-Inf", "-1", "0", "1e9"} {
		msg := clitest.RunFail(t, bin, "-replay", "-designs", "aes", "-scale", scale)
		if !strings.Contains(msg, "outside (0, 1000]") {
			t.Errorf("-scale %s: stderr %q does not name the rule", scale, msg)
		}
	}
	// A finite slack whose deadlines pass the engine's clock is refused
	// when the trace is drawn, before the header prints.
	msg = clitest.RunFail(t, bin, "-replay", "-slack", "1e300", "-designs", "aes", "-scale", "0.02")
	if !strings.Contains(msg, "2^53 s clock") {
		t.Errorf("-slack 1e300: stderr %q does not name the clock bound", msg)
	}
}
