package cli

import (
	"bytes"
	"errors"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"

	"edacloud/internal/cloud"
	"edacloud/internal/core"
	"edacloud/internal/designs"
	"edacloud/internal/techlib"
)

// TestChecks pins every numeric check at its boundary: the bound itself
// is accepted, the nearest value past it is refused, NaN and both
// infinities are refused, and each refusal carries the wording the
// command binaries' tests look for.
func TestChecks(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	tiny := math.SmallestNonzeroFloat64
	above := func(v float64) float64 { return math.Nextafter(v, inf) }
	for _, tc := range []struct {
		name   string
		check  func(float64) error
		accept []float64
		refuse []float64
		want   string
	}{
		{"NonNegative", func(v float64) error { return NonNegative("slack", v) },
			[]float64{0, tiny, 1e300}, []float64{-tiny, -1, nan, inf, -inf}, "finite and not negative"},
		{"Positive", func(v float64) error { return Positive("clock", v) },
			[]float64{tiny, 1e300}, []float64{0, -tiny, nan, inf, -inf}, "must be positive and finite"},
		{"HazardRate", HazardRate,
			[]float64{0, cloud.MaxHazardPerHour}, []float64{-tiny, nan, inf, -inf}, "finite and not negative"},
		{"HazardRate above the bound", HazardRate,
			nil, []float64{above(cloud.MaxHazardPerHour), 1e300}, "MaxHazardPerHour"},
		{"Scale", func(v float64) error { return Scale("scale", v) },
			[]float64{tiny, designs.MaxScale}, []float64{0, -tiny, above(designs.MaxScale), nan, inf, -inf}, "outside (0, 1000]"},
	} {
		for _, v := range tc.accept {
			if err := tc.check(v); err != nil {
				t.Errorf("%s(%v) refused: %v", tc.name, v, err)
			}
		}
		for _, v := range tc.refuse {
			if err := tc.check(v); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s(%v) = %v, want a refusal containing %q", tc.name, v, err, tc.want)
			}
		}
	}
	if err := Count("workers", 0); err != nil {
		t.Errorf("Count(0) refused: %v", err)
	}
	if err := Count("workers", -1); err == nil || err.Error() != "-workers -1: must not be negative" {
		t.Errorf("Count(-1) = %v", err)
	}
	if err := NoArgs(nil); err != nil {
		t.Errorf("NoArgs(nil) refused: %v", err)
	}
	if err := NoArgs([]string{"3", "-slack"}); err == nil || !strings.Contains(err.Error(), `unexpected argument "3"`) {
		t.Errorf("NoArgs([3 -slack]) = %v", err)
	}
}

// TestCheckFailsOnFirstError runs Check in a child process: it must
// exit with status 1 after printing only the first non-nil error,
// prefixed with the program name, and nothing on stdout.
func TestCheckFailsOnFirstError(t *testing.T) {
	if os.Getenv("CLI_CHECK_CHILD") == "1" {
		Check("prog", nil, errors.New("first"), errors.New("second"))
		return
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(os.Args[0], "-test.run=^TestCheckFailsOnFirstError$")
	cmd.Env = append(os.Environ(), "CLI_CHECK_CHILD=1")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if cmd.ProcessState == nil || cmd.ProcessState.ExitCode() != 1 {
		t.Fatalf("child: %v, want exit status 1", err)
	}
	if stdout.Len() > 0 || stderr.String() != "prog: first\n" {
		t.Fatalf("stdout %q, stderr %q; want nothing and %q", stdout.String(), stderr.String(), "prog: first\n")
	}
}

// TestSpotCatalog: the spot twin of gp.4x bills 30% of gp.4x at
// SpotDiscount, every twin and no on-demand type carries the hazard
// rate, a zero rate gives no hazard map, and a discount outside (0, 1)
// is refused.
func TestSpotCatalog(t *testing.T) {
	od := cloud.DefaultCatalog()
	spot, hazards, err := SpotCatalog(od, SpotDiscount, 60)
	if err != nil {
		t.Fatal(err)
	}
	base, err := spot.ByName("gp.4x")
	if err != nil {
		t.Fatal(err)
	}
	twin, err := spot.ByName("gp.4x.spot")
	if err != nil {
		t.Fatal(err)
	}
	if want := 0.3 * base.PricePerHour; math.Abs(twin.PricePerHour-want) > 1e-12*want {
		t.Errorf("gp.4x.spot bills %v/h, want 0.3 x %v = %v", twin.PricePerHour, base.PricePerHour, want)
	}
	if !twin.Revocable || twin.OnDemand != "gp.4x" {
		t.Errorf("gp.4x.spot: revocable %v, on-demand %q", twin.Revocable, twin.OnDemand)
	}
	if len(hazards) != len(od.Types) {
		t.Errorf("%d hazards for %d spot twins", len(hazards), len(od.Types))
	}
	for _, it := range spot.Types {
		if rate, ok := hazards[it.Name]; ok != it.Revocable || (ok && rate != 60) {
			t.Errorf("%s: hazard %v (present %v), revocable %v", it.Name, rate, ok, it.Revocable)
		}
	}
	if _, hazards, err := SpotCatalog(od, SpotDiscount, 0); err != nil || hazards != nil {
		t.Errorf("rate 0: hazards %v, err %v; want nil, nil", hazards, err)
	}
	for _, d := range []float64{0, 1, -0.3, 1.5} {
		if _, _, err := SpotCatalog(od, d, 60); err == nil {
			t.Errorf("discount %v accepted", d)
		}
	}
}

// TestArm: a nil hazard map leaves the fleet unarmed; otherwise every
// armed fleet gets its own model with the given seed and hazards, so
// clones armed alike replay the same timelines without sharing state.
func TestArm(t *testing.T) {
	spot, hazards, err := SpotCatalog(cloud.DefaultCatalog(), SpotDiscount, 240)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := cloud.ParseFleetSpec(spot, "gp.2x=1,gp.2x.spot=2")
	if err != nil {
		t.Fatal(err)
	}
	if Arm(fleet, 7, nil); fleet.Revocation != nil {
		t.Fatal("nil hazards armed the fleet")
	}
	a, b := Arm(fleet.Clone(), 7, hazards), Arm(fleet.Clone(), 7, hazards)
	if a.Revocation == nil || a.Revocation == b.Revocation {
		t.Fatal("armed clones must each get a fresh model")
	}
	for _, inst := range a.Instances {
		ta, oka := a.Revocation.NextRevocation(inst, 0)
		tb, okb := b.Revocation.NextRevocation(inst, 0)
		if ta != tb || oka != okb || oka != inst.Type.Revocable {
			t.Errorf("%s: revocations %v/%v and %v/%v", inst.ID, ta, oka, tb, okb)
		}
	}
}

// TestDesigns: a design list with a repeated, space-padded name
// characterizes that design once and shares it, prices it over every
// catalog in order, and names the batch jobs by list position.
func TestDesigns(t *testing.T) {
	od := cloud.DefaultCatalog()
	spot, _, err := SpotCatalog(od, SpotDiscount, 0)
	if err != nil {
		t.Fatal(err)
	}
	lib := techlib.Default14nm()
	opts := core.CharacterizeOptions{Scale: 0.02}
	ds, err := Designs(lib, []string{"dyn_node", " dyn_node "}, opts, od, spot)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 2 || ds[0].Name != "dyn_node" || ds[1].Name != "dyn_node" {
		t.Fatalf("designs %+v", ds)
	}
	if ds[0].Char != ds[1].Char || ds[0].Probs[1] != ds[1].Probs[1] {
		t.Fatal("a repeated name was characterized twice")
	}
	if len(ds[0].Probs) != 2 || len(ds[0].Probs[1].Stages[0]) <= len(ds[0].Probs[0].Stages[0]) {
		t.Fatal("the second problem does not price the spot catalog")
	}
	specs := BatchSpecs(ds, 1)
	for i, want := range []string{"dyn_node#0", "dyn_node#1"} {
		if specs[i].Name != want || specs[i].Char != ds[i].Char || specs[i].Prob != ds[i].Probs[1] {
			t.Errorf("spec %d: %q over %p, want %q over %p", i, specs[i].Name, specs[i].Prob, want, ds[i].Probs[1])
		}
	}
	if _, err := Designs(lib, []string{"dyn_node", "no_such_design"}, opts, od); err == nil {
		t.Fatal("an unknown design was accepted")
	}
}
