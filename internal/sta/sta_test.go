package sta

import (
	"math"
	"testing"

	"edacloud/internal/designs"
	"edacloud/internal/netlist"
	"edacloud/internal/par"
	"edacloud/internal/perf"
	"edacloud/internal/place"
	"edacloud/internal/synth"
	"edacloud/internal/techlib"
)

var lib = techlib.Default14nm()

func mapped(t *testing.T, name string, scale float64, reg bool) *netlist.Netlist {
	t.Helper()
	g := designs.MustBenchmark(name, scale)
	res, err := synth.Synthesize(g, lib, synth.Options{RegisterOutputs: reg})
	if err != nil {
		t.Fatalf("synth: %v", err)
	}
	return res.Netlist
}

func TestAnalyzeBasic(t *testing.T) {
	nl := mapped(t, "int2float", 0.25, false)
	res, report, err := Analyze(nl, nil, Options{})
	if err != nil {
		t.Fatalf("sta: %v", err)
	}
	if res.Endpoints != len(nl.POs) {
		t.Fatalf("endpoints = %d, want %d POs", res.Endpoints, len(nl.POs))
	}
	if res.MaxArrival <= 0 {
		t.Fatal("no arrival time propagated")
	}
	if len(res.CriticalPath) == 0 {
		t.Fatal("no critical path")
	}
	if report == nil || len(report.Phases) != 2 {
		t.Fatalf("report = %+v", report)
	}
	// Slack + arrival must agree at the worst endpoint.
	if res.WNS > (Options{}).withDefaults().ClockPeriodNs {
		t.Fatalf("WNS %g exceeds clock period", res.WNS)
	}
}

func TestCriticalPathArrivalsMonotone(t *testing.T) {
	nl := mapped(t, "adder", 0.125, false)
	res, _, err := Analyze(nl, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.CriticalPath); i++ {
		if res.CriticalPath[i].Arrival < res.CriticalPath[i-1].Arrival {
			t.Fatalf("critical path arrivals not monotone at step %d", i)
		}
	}
	last := res.CriticalPath[len(res.CriticalPath)-1].Arrival
	if last > res.MaxArrival+1e-12 {
		t.Fatalf("critical path ends later (%g) than max arrival (%g)", last, res.MaxArrival)
	}
}

func TestDeeperLogicHasLaterArrival(t *testing.T) {
	shallow := mapped(t, "priority", 0.0625, false)
	deep := mapped(t, "adder", 0.25, false) // a 32-bit ripple carry is deep
	rs, _, err := Analyze(shallow, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rd, _, err := Analyze(deep, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rd.MaxArrival <= rs.MaxArrival {
		t.Fatalf("ripple adder (%g) not slower than small priority encoder (%g)",
			rd.MaxArrival, rs.MaxArrival)
	}
}

func TestTightClockViolates(t *testing.T) {
	nl := mapped(t, "adder", 0.25, false)
	relaxed, _, err := Analyze(nl, nil, Options{ClockPeriodNs: 100})
	if err != nil {
		t.Fatal(err)
	}
	if relaxed.WNS < 0 || relaxed.TNS != 0 {
		t.Fatalf("100ns clock should meet timing: WNS=%g TNS=%g", relaxed.WNS, relaxed.TNS)
	}
	tight, _, err := Analyze(nl, nil, Options{ClockPeriodNs: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if tight.WNS >= 0 || tight.TNS >= 0 {
		t.Fatalf("1ps clock should violate: WNS=%g TNS=%g", tight.WNS, tight.TNS)
	}
}

func TestRegisteredDesignEndpoints(t *testing.T) {
	nl := mapped(t, "priority", 0.0625, true)
	res, _, err := Analyze(nl, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Endpoints: each PO plus each DFF D input.
	want := len(nl.POs) + nl.NumSeq()
	if res.Endpoints != want {
		t.Fatalf("endpoints = %d, want %d", res.Endpoints, want)
	}
}

func TestWireLoadsSlowTiming(t *testing.T) {
	nl := mapped(t, "cavlc", 0.3, false)
	pl, _, err := place.Place(nl, place.Options{})
	if err != nil {
		t.Fatal(err)
	}
	noWire, _, err := Analyze(nl, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wire, _, err := Analyze(nl, pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if wire.MaxArrival <= noWire.MaxArrival {
		t.Fatalf("wire loads did not slow timing: %g vs %g", wire.MaxArrival, noWire.MaxArrival)
	}
}

func TestAnalyzeRejectsCyclicNetlist(t *testing.T) {
	nl := netlist.New("cyc", lib)
	a := nl.AddPI("a")
	n1 := nl.AddNet()
	n2 := nl.AddNet()
	nl.MustAddCell(lib.MustCell("NAND2_X1"), []netlist.NetID{a, n2}, n1)
	nl.MustAddCell(lib.MustCell("NAND2_X1"), []netlist.NetID{n1, a}, n2)
	nl.AddPO("f", n2)
	if _, _, err := Analyze(nl, nil, Options{}); err == nil {
		t.Fatal("cyclic netlist accepted")
	}
}

func TestProfileShapeFPHeavy(t *testing.T) {
	nl := mapped(t, "cavlc", 0.4, false)
	probe := perf.NewProbe(perf.DefaultProbeConfig())
	_, report, err := Analyze(nl, nil, Options{StageConfig: par.StageConfig{Probe: probe}})
	if err != nil {
		t.Fatal(err)
	}
	total := report.Total()
	if total.FPVector == 0 {
		t.Fatal("STA recorded no vector FP (table interpolation)")
	}
	// STA scaling is modest (paper: ~2.2x at 8 vCPUs).
	s1 := perf.Xeon14(1).Seconds(report)
	s8 := perf.Xeon14(8).Seconds(report)
	sp := s1 / s8
	if sp < 1.1 || sp > 4.5 {
		t.Fatalf("8-vCPU STA speedup %.2f outside plausible band", sp)
	}
}

func TestLevelWidthsSumToCells(t *testing.T) {
	nl := mapped(t, "int2float", 0.25, false)
	res, _, err := Analyze(nl, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, w := range res.LevelWidths {
		sum += w
	}
	if sum != nl.NumCells() {
		t.Fatalf("level widths sum %d != cells %d", sum, nl.NumCells())
	}
}

func TestEmptyNetlistTiming(t *testing.T) {
	nl := netlist.New("empty", lib)
	nl.AddPI("a")
	res, _, err := Analyze(nl, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Endpoints != 0 || res.MaxArrival != 0 {
		t.Fatalf("empty design timing: %+v", res)
	}
}

func TestHoldAnalysis(t *testing.T) {
	// Registered design: DFF endpoints get hold checks. The adder has
	// at least one gate on every output, so min-delay paths clear the
	// sub-gate-delay default hold time.
	nl := mapped(t, "adder", 0.0625, true)
	res, _, err := Analyze(nl, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(res.WHS, 1) {
		t.Fatal("registered design reported no hold slack")
	}
	if res.HoldViolations != 0 {
		t.Fatalf("unexpected hold violations: %d (WHS %g)", res.HoldViolations, res.WHS)
	}
	// An absurd hold requirement must violate.
	strict, _, err := Analyze(nl, nil, Options{HoldTimeNs: 10})
	if err != nil {
		t.Fatal(err)
	}
	if strict.HoldViolations == 0 || strict.WHS >= 0 {
		t.Fatalf("10ns hold not violated: %+v", strict)
	}
}

func TestHoldSkippedForCombinational(t *testing.T) {
	nl := mapped(t, "priority", 0.0625, false)
	res, _, err := Analyze(nl, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.WHS, 1) || res.HoldViolations != 0 {
		t.Fatalf("combinational design got hold checks: %+v", res)
	}
}

func TestMinDelayNeverExceedsMaxDelay(t *testing.T) {
	nl := mapped(t, "adder", 0.125, true)
	res, _, err := Analyze(nl, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// WHS + hold time is the earliest register-input arrival; it can
	// never exceed the latest arrival anywhere.
	earliest := res.WHS + (Options{}).withDefaults().HoldTimeNs
	if earliest > res.MaxArrival+1e-12 {
		t.Fatalf("min-delay arrival %g exceeds max arrival %g", earliest, res.MaxArrival)
	}
}
