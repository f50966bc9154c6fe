package main

import (
	"flag"
	"strings"
	"testing"

	"edacloud/internal/clitest"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestSpotFleetGolden pins the -spot fleet batch's stdout end to end:
// the per-job schedule with revocation and lost-work columns, the
// per-attempt stage table (checkpoint recovery and escalation to the
// on-demand counterpart are visible as attempt-2 rows on mem.4x), the
// batch preemption summary, and the truncated-lease fleet ledger.
func TestSpotFleetGolden(t *testing.T) {
	bin := clitest.Build(t, "")
	got := clitest.Run(t, bin,
		"-design", "aes",
		"-scale", "0.03",
		"-fleet", "mem.4x.spot=2,mem.4x=1",
		"-batch", "3",
		"-instance", "mem.4x.spot",
		"-spot",
		"-hazard-seed", "11",
		"-hazard-rate", "60",
		"-escalate-after", "1",
	)
	clitest.Golden(t, "testdata/spot_fleet.golden", got, *update)
}

// TestPlanFleetGolden pins the -fleet -policy plan mode's stdout end to
// end: the co-optimized plans, the contended schedule with its
// per-stage placements (where placement-time re-plans are visible as
// off-plan instances), and the fleet ledger.
func TestPlanFleetGolden(t *testing.T) {
	bin := clitest.Build(t, "")
	got := clitest.Run(t, bin,
		"-design", "ibex",
		"-scale", "0.03",
		"-fleet", "gp.1x=1,gp.8x=1,mem.1x=1,mem.8x=1",
		"-batch", "3",
		"-policy", "plan",
	)
	clitest.Golden(t, "testdata/plan_fleet.golden", got, *update)
}

// TestHierFleetGolden pins the -hier fleet batch: the design split into
// cone-partition sub-designs, one scheduled job per partition, and the
// stitched result's stats with the equivalence verdict.
func TestHierFleetGolden(t *testing.T) {
	bin := clitest.Build(t, "")
	got := clitest.Run(t, bin,
		"-design", "aes",
		"-scale", "0.02",
		"-stages", "synthesis",
		"-fleet", "gp.4x=2",
		"-policy", "firstfit",
		"-hier",
		"-hier-grain", "300",
	)
	clitest.Golden(t, "testdata/hier_fleet.golden", got, *update)
}

// TestCacheFleetGolden pins the -cache fleet batch: an artifact store
// attached across three copies of the same flow. The first copy
// computes every stage; the planner predicts the rest as hits, so
// their stage tables show "(cache)" placements at the probe constant
// and the batch bills a single copy's work. The cache summary line
// pins the hit/miss accounting.
func TestCacheFleetGolden(t *testing.T) {
	bin := clitest.Build(t, "")
	got := clitest.Run(t, bin,
		"-design", "aes",
		"-scale", "0.03",
		"-fleet", "gp.2x=1,mem.2x=1",
		"-batch", "3",
		"-policy", "plan",
		"-cache",
	)
	clitest.Golden(t, "testdata/cache_fleet.golden", got, *update)
}

// TestCacheFirstFitGolden pins -cache under the firstfit policy: the
// scheduler-level dedup path (no planner involved) — later copies'
// stages adopt the first copy's artifacts and book no machine.
func TestCacheFirstFitGolden(t *testing.T) {
	bin := clitest.Build(t, "")
	got := clitest.Run(t, bin,
		"-design", "aes",
		"-scale", "0.03",
		"-fleet", "gp.4x=1,mem.8x=1",
		"-batch", "3",
		"-policy", "firstfit",
		"-cache",
	)
	clitest.Golden(t, "testdata/cache_firstfit.golden", got, *update)
}

// TestBatchBelowOneRefused: a -fleet batch of fewer than one copy is
// refused under every policy before the design is even built — exit 1,
// nothing on stdout. -hier ignores -batch, so it still runs. The same
// holds for a VM below one vCPU, a clock period that is not positive
// and finite, and a negative or non-finite -hazard-rate, -deadline,
// -minbill or -escalate-after (each of which used to run to exit 0).
func TestBatchBelowOneRefused(t *testing.T) {
	bin := clitest.Build(t, "")
	for _, tc := range []struct{ policy, batch string }{
		{"plan", "-1"}, {"single", "0"}, {"firstfit", "0"},
	} {
		msg := clitest.RunFail(t, bin, "-design", "ibex", "-scale", "0.02",
			"-fleet", "gp.1x=1,mem.1x=1", "-policy", tc.policy, "-batch", tc.batch)
		if !strings.Contains(msg, "at least 1 copy") {
			t.Errorf("-policy %s -batch %s: stderr %q does not name the rule", tc.policy, tc.batch, msg)
		}
	}
	for _, tc := range []struct{ flag, value, want string }{
		{"-vcpus", "0", "at least 1 vCPU"},
		{"-vcpus", "-2", "at least 1 vCPU"},
		{"-clock", "-1", "positive and finite"},
		{"-clock", "0", "positive and finite"},
		{"-clock", "NaN", "positive and finite"},
		{"-clock", "Inf", "positive and finite"},
		{"-hazard-rate", "-1", "finite and not negative"},
		{"-deadline", "-5", "finite and not negative"},
		{"-deadline", "NaN", "finite and not negative"},
		{"-minbill", "-60", "finite and not negative"},
		{"-escalate-after", "-1", "must not be negative"},
	} {
		msg := clitest.RunFail(t, bin, "-design", "ibex", "-scale", "0.02",
			"-fleet", "mem.4x.spot=1,mem.4x=1", "-instance", "mem.4x.spot", "-spot", tc.flag, tc.value)
		if !strings.Contains(msg, tc.want) {
			t.Errorf("%s %s: stderr %q does not name the rule", tc.flag, tc.value, msg)
		}
	}
	clitest.Run(t, bin, "-design", "aes", "-scale", "0.02", "-stages", "synthesis",
		"-fleet", "gp.4x=2", "-policy", "firstfit", "-hier", "-hier-grain", "300", "-batch", "0")
}

// TestStrayArgumentRefused: an argument that is not a flag ends flag
// parsing, which would drop the -fleet batch after it; it is refused by
// name before the design is built.
func TestStrayArgumentRefused(t *testing.T) {
	bin := clitest.Build(t, "")
	msg := clitest.RunFail(t, bin, "-design", "ibex", "-scale", "0.02", "plan",
		"-fleet", "gp.1x=1,mem.1x=1", "-batch", "2")
	if !strings.Contains(msg, `unexpected argument "plan"`) {
		t.Fatalf("stderr %q does not name the stray argument", msg)
	}
}
