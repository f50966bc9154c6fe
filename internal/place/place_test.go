package place

import (
	"math"
	"testing"

	"edacloud/internal/designs"
	"edacloud/internal/netlist"
	"edacloud/internal/par"
	"edacloud/internal/perf"
	"edacloud/internal/synth"
	"edacloud/internal/techlib"
)

var lib = techlib.Default14nm()

func mappedBench(t *testing.T, name string, scale float64) *netlist.Netlist {
	t.Helper()
	g := designs.MustBenchmark(name, scale)
	res, err := synth.Synthesize(g, lib, synth.Options{})
	if err != nil {
		t.Fatalf("synthesize %s: %v", name, err)
	}
	return res.Netlist
}

func TestPlaceBasicInvariants(t *testing.T) {
	nl := mappedBench(t, "int2float", 0.25)
	p, report, err := Place(nl, Options{})
	if err != nil {
		t.Fatalf("place: %v", err)
	}
	if len(p.X) != nl.NumCells() || len(p.Y) != nl.NumCells() {
		t.Fatalf("coordinate count mismatch")
	}
	for i := range p.X {
		if p.X[i] < 0 || p.X[i] > p.DieW || p.Y[i] < 0 || p.Y[i] > p.DieH {
			t.Fatalf("cell %d at (%g,%g) outside die %gx%g", i, p.X[i], p.Y[i], p.DieW, p.DieH)
		}
	}
	if p.HPWL <= 0 {
		t.Fatal("non-positive wirelength")
	}
	if report == nil || len(report.Phases) != 3 {
		t.Fatalf("expected 3 phases, got %+v", report)
	}
	if p.DieW*p.DieH < nl.Area() {
		t.Fatal("die smaller than cell area")
	}
}

func TestPlaceEmptyNetlistRejected(t *testing.T) {
	nl := netlist.New("empty", lib)
	if _, _, err := Place(nl, Options{}); err == nil {
		t.Fatal("empty netlist accepted")
	}
}

func TestPlaceLegalizationRows(t *testing.T) {
	nl := mappedBench(t, "priority", 0.25)
	p, _, err := Place(nl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every cell must sit on a row center.
	for i := range p.Y {
		rowPos := p.Y[i]/p.RowHeight - 0.5
		if math.Abs(rowPos-math.Round(rowPos)) > 1e-6 {
			t.Fatalf("cell %d y=%g not on a row center", i, p.Y[i])
		}
	}
}

func TestPlaceRowsDoNotOverlapMuch(t *testing.T) {
	nl := mappedBench(t, "int2float", 0.25)
	p, _, err := Place(nl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Group cells by row and check pairwise overlap along x.
	type span struct{ lo, hi float64 }
	rows := map[int][]span{}
	for i := range p.X {
		r := int(p.Y[i] / p.RowHeight)
		w := nl.Cells[i].Type.Area / p.RowHeight
		rows[r] = append(rows[r], span{p.X[i], p.X[i] + w})
	}
	var overlap, total float64
	for _, spans := range rows {
		for i := 0; i < len(spans); i++ {
			total += spans[i].hi - spans[i].lo
			for j := i + 1; j < len(spans); j++ {
				lo := math.Max(spans[i].lo, spans[j].lo)
				hi := math.Min(spans[i].hi, spans[j].hi)
				if hi > lo {
					overlap += hi - lo
				}
			}
		}
	}
	if total > 0 && overlap/total > 0.02 {
		t.Fatalf("row overlap fraction %.3f too high", overlap/total)
	}
}

func TestPlacementImprovesOverRandomBaseline(t *testing.T) {
	nl := mappedBench(t, "cavlc", 0.3)
	p, _, err := Place(nl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Compare against a deterministic scattered baseline: cells on a
	// uniform grid in arbitrary (index) order.
	grid := int(math.Ceil(math.Sqrt(float64(nl.NumCells()))))
	q := &Placement{
		X: make([]float64, nl.NumCells()), Y: make([]float64, nl.NumCells()),
		PIx: p.PIx, PIy: p.PIy, POx: p.POx, POy: p.POy,
		DieW: p.DieW, DieH: p.DieH, RowHeight: p.RowHeight,
	}
	for i := range q.X {
		q.X[i] = (float64(i%grid) + 0.5) * p.DieW / float64(grid)
		q.Y[i] = (float64(i/grid) + 0.5) * p.DieH / float64(grid)
	}
	base := HPWL(nl, q, nil)
	if p.HPWL >= base {
		t.Fatalf("analytic placement (%.1f) not better than scattered baseline (%.1f)", p.HPWL, base)
	}
}

func TestPlaceProfileShape(t *testing.T) {
	nl := mappedBench(t, "cavlc", 0.4)
	probe := perf.NewProbe(perf.DefaultProbeConfig())
	_, report, err := Place(nl, Options{StageConfig: par.StageConfig{Probe: probe}})
	if err != nil {
		t.Fatal(err)
	}
	total := report.Total()
	if total.FPVector == 0 {
		t.Fatal("placement recorded no vector FP work")
	}
	// Placement is the FP-heaviest job in the paper (Fig. 2c): vector
	// FP share must dominate its own scalar FP share.
	if total.FPVector < 10*total.FPScalar {
		t.Fatalf("vector FP (%d) should dwarf scalar FP (%d)", total.FPVector, total.FPScalar)
	}
	// Runtime shape: scales with vCPUs but sublinearly (paper: ~2.3x at 8).
	s1 := perf.Xeon14(1).Seconds(report)
	s8 := perf.Xeon14(8).Seconds(report)
	sp := s1 / s8
	if sp < 1.2 || sp > 6 {
		t.Fatalf("8-vCPU placement speedup %.2f outside plausible band", sp)
	}
}

func TestPlaceDeterministic(t *testing.T) {
	nl := mappedBench(t, "priority", 0.2)
	p1, _, err := Place(nl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := Place(nl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range p1.X {
		if p1.X[i] != p2.X[i] || p1.Y[i] != p2.Y[i] {
			t.Fatalf("placement not deterministic at cell %d", i)
		}
	}
	if p1.HPWL != p2.HPWL {
		t.Fatal("HPWL not deterministic")
	}
}

func TestHPWLZeroForSingleCellNets(t *testing.T) {
	// A netlist with one inverter: PI -> INV -> PO.
	nl := netlist.New("one", lib)
	a := nl.AddPI("a")
	out := nl.AddNet("f")
	nl.MustAddCell("u0", lib.MustCell("INV_X1"), []netlist.NetID{a}, out)
	nl.AddPO("f", out)
	p, _, err := Place(nl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.HPWL < 0 {
		t.Fatal("negative wirelength")
	}
}

func TestSpreadReducesPeakDensity(t *testing.T) {
	nl := mappedBench(t, "int2float", 0.3)
	p, _, err := Place(nl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Overflow > 0.5 {
		t.Fatalf("residual overflow %.2f too high after spreading", p.Overflow)
	}
}
