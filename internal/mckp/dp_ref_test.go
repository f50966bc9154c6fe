package mckp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The dense DP and the copying priced solve as they were before the
// DP kept only each layer's steps: one row entry per second of budget,
// and every class copied to add the shadow price. They define what a
// table's build and read, SolveMinCost, SolvePaper and a batch round's
// priced solve must produce, bit for bit — every pick, and every total
// summed in the same order.

func refSolveDP(classes []Class, deadline int, value func(Item) float64, minCost bool) Selection {
	n := len(classes)
	width := deadline + 1
	negInf := math.Inf(-1)

	cur := make([]float64, width)
	prev := make([]float64, width)
	choice := make([]int16, n*width)
	for l := 0; l < n; l++ {
		for c := 0; c < width; c++ {
			cur[c] = negInf
			choice[l*width+c] = -1
		}
		for j, it := range classes[l].Items {
			v := value(it)
			for c := it.TimeSec; c < width; c++ {
				base := prev[c-it.TimeSec]
				if math.IsInf(base, -1) {
					continue
				}
				if cand := base + v; cand > cur[c] {
					cur[c] = cand
					choice[l*width+c] = int16(j)
				}
			}
		}
		prev, cur = cur, prev
	}
	best := prev[deadline]
	if math.IsInf(best, -1) {
		return Selection{Feasible: false}
	}
	sel := Selection{Feasible: true, Pick: make([]int, n)}
	c := deadline
	for l := n - 1; l >= 0; l-- {
		j := choice[l*width+c]
		if j < 0 {
			return Selection{Feasible: false}
		}
		sel.Pick[l] = int(j)
		it := classes[l].Items[j]
		sel.TotalTime += it.TimeSec
		sel.TotalCost += it.Cost
		c -= it.TimeSec
	}
	if !minCost {
		sel.Objective = best
	}
	return sel
}

func refSolveMinCost(classes []Class, deadline int) Selection {
	return refSolveDP(classes, deadline, func(it Item) float64 { return -it.Cost }, true)
}

func refSolvePaper(classes []Class, deadline int) Selection {
	return refSolveDP(classes, deadline, func(it Item) float64 {
		if it.Cost <= 0 {
			return math.Inf(1)
		}
		return 1 / it.Cost
	}, false)
}

func refPricedSolve(job BatchJob, prices map[string]float64) Selection {
	classes := job.Classes
	if len(prices) > 0 {
		classes = make([]Class, len(job.Classes))
		for l, cl := range job.Classes {
			classes[l] = Class{Name: cl.Name, Items: make([]Item, len(cl.Items))}
			for j, it := range cl.Items {
				it.Cost += prices[it.Label] * float64(it.TimeSec)
				classes[l].Items[j] = it
			}
		}
	}
	sel := refSolveMinCost(classes, effectiveDeadline(job))
	if !sel.Feasible {
		return sel
	}
	sel.TotalTime, sel.TotalCost = 0, 0
	for l, j := range sel.Pick {
		it := job.Classes[l].Items[j]
		sel.TotalTime += it.TimeSec
		sel.TotalCost += it.Cost
	}
	return sel
}

// sameBits reports how two selections differ, "" when they agree in
// every field to the bit.
func sameBits(got, want Selection) string {
	if got.Feasible != want.Feasible || len(got.Pick) != len(want.Pick) ||
		got.TotalTime != want.TotalTime ||
		math.Float64bits(got.TotalCost) != math.Float64bits(want.TotalCost) ||
		math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		return fmt.Sprintf("got %+v, want %+v", got, want)
	}
	for l := range got.Pick {
		if got.Pick[l] != want.Pick[l] {
			return fmt.Sprintf("pick %d: got %+v, want %+v", l, got, want)
		}
	}
	return ""
}

// slowestTotal is the budget past which no DP layer changes.
func slowestTotal(classes []Class) int {
	total := 0
	for _, cl := range classes {
		worst := 0
		for _, it := range cl.Items {
			worst = max(worst, it.TimeSec)
		}
		total += worst
	}
	return total
}

// checkAgainstReference solves one table at one deadline through both
// objectives and the priced solve, and fails on any bit of difference
// from the dense reference.
func checkAgainstReference(t *testing.T, classes []Class, deadline int, prices map[string]float64) {
	t.Helper()
	got, err := SolveMinCost(classes, deadline)
	if err != nil {
		t.Fatal(err)
	}
	if diff := sameBits(got, refSolveMinCost(classes, deadline)); diff != "" {
		t.Fatalf("SolveMinCost(%+v, %d): %s", classes, deadline, diff)
	}
	if got, err = SolvePaper(classes, deadline); err != nil {
		t.Fatal(err)
	}
	if diff := sameBits(got, refSolvePaper(classes, deadline)); diff != "" {
		t.Fatalf("SolvePaper(%+v, %d): %s", classes, deadline, diff)
	}
	job := BatchJob{Name: "j", Classes: classes, DeadlineSec: deadline}
	if got, err = solvePriced(job, prices, &Scratch{}); err != nil {
		t.Fatal(err)
	}
	if diff := sameBits(got, refPricedSolve(job, prices)); diff != "" {
		t.Fatalf("priced solve of %+v under %v at deadline %d: %s", classes, prices, deadline, diff)
	}
}

// solvePriced runs one job's priced solve as a call's round through s.
func solvePriced(job BatchJob, prices map[string]float64, s *Scratch) (Selection, error) {
	jobs := []BatchJob{job}
	s.begin()
	var c candidate
	est := new(estimator).reset(jobs, Capacity{"a": 1, "b": 1, "c": 1}, nil)
	vec := make([]float64, len(est.labels))
	for k, label := range est.labels {
		vec[k] = prices[label]
	}
	if ok, err := s.solve(est, vec, &c); !ok || err != nil {
		return Selection{}, err
	}
	return c.sels[0], nil
}

var refLabels = []string{"a", "b", "c"}

// randomTable draws a choice table built to stress the tie rules:
// mostly whole-dollar costs (exact ties between sums), zero costs (a
// +Inf paper value) and zero-time items.
func randomTable(rng *rand.Rand) []Class {
	classes := make([]Class, 1+rng.Intn(4))
	for l := range classes {
		classes[l].Name = fmt.Sprintf("s%d", l)
		for j := 1 + rng.Intn(5); j > 0; j-- {
			it := Item{Label: refLabels[rng.Intn(len(refLabels))], TimeSec: rng.Intn(25), Cost: float64(rng.Intn(5))}
			if rng.Intn(3) == 0 {
				it.Cost = float64(rng.Intn(400)) / 100
			}
			if rng.Intn(6) == 0 {
				it.TimeSec = 0
			}
			classes[l].Items = append(classes[l].Items, it)
		}
	}
	return classes
}

// TestStepDPMatchesReference replays random tables at every deadline
// from 0 past the slowest plan through both objectives and the priced
// solve against the dense DP. Shadow prices are nil, zero, whole
// dollars (priced costs tie exactly) or random thousandths.
func TestStepDPMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 400; trial++ {
		classes := randomTable(rng)
		var prices map[string]float64
		if trial%4 > 0 {
			prices = map[string]float64{}
			for _, label := range refLabels {
				switch trial % 4 {
				case 1:
					prices[label] = 0
				case 2:
					prices[label] = float64(rng.Intn(3))
				default:
					prices[label] = float64(rng.Intn(200)) / 1000
				}
			}
		}
		for d := 0; d <= slowestTotal(classes)+2; d++ {
			checkAgainstReference(t, classes, d, prices)
		}
	}
}

// TestPricedSolveRefusesNegativePricedCost: a warm-start price vector
// that drives an item's priced cost below zero is refused, as the
// validation of the priced table always refused it.
func TestPricedSolveRefusesNegativePricedCost(t *testing.T) {
	job := BatchJob{Name: "j", Classes: []Class{{Name: "s", Items: []Item{{Label: "a", TimeSec: 10, Cost: 1}}}}}
	if _, err := solvePriced(job, map[string]float64{"a": -1}, &Scratch{}); err == nil {
		t.Fatal("negative priced cost accepted")
	}
}

// decodeTable turns fuzz bytes into a deadline, a choice table and a
// price vector: two bytes of deadline (0–1023) and a price scale, then
// two bytes per item — the first byte's top bit opens a new class, its
// low six bits are the item's seconds; the second byte's low four bits
// are its cost in quarter dollars (ties and zeros are common) and the
// next two its label.
func decodeTable(data []byte) ([]Class, int, map[string]float64, bool) {
	if len(data) < 4 {
		return nil, 0, nil, false
	}
	deadline := int(data[0]) | int(data[1]&3)<<8
	scale := float64(data[1]>>2) / 256
	prices := map[string]float64{}
	for k, label := range refLabels {
		prices[label] = scale * float64(k)
	}
	var classes []Class
	for i := 2; i+1 < len(data) && i < 2+2*48; i += 2 {
		b0, b1 := data[i], data[i+1]
		if len(classes) == 0 || (b0&0x80 != 0 && len(classes) < 8) {
			classes = append(classes, Class{Name: fmt.Sprintf("s%d", len(classes))})
		}
		cl := &classes[len(classes)-1]
		cl.Items = append(cl.Items, Item{
			Label:   refLabels[int(b1>>4&3)%len(refLabels)],
			TimeSec: int(b0 & 0x3f),
			Cost:    float64(b1&0x0f) / 4,
		})
	}
	return classes, deadline, prices, true
}

// checkScratchAgainstReference solves one table twice through one
// Scratch and one table, after a table of a different size has left its
// storage in them, through the priced solve and the paper objective,
// and fails on any bit of difference from the dense reference. The
// Scratch's first pass builds in the recycled storage of that table,
// and its second reads the table the first pass built.
func checkScratchAgainstReference(t *testing.T, classes []Class, deadline int, prices map[string]float64) {
	t.Helper()
	var (
		s  Scratch
		tb table
	)
	// The other table: twice as many classes, one item fewer in the
	// first when it has more than one, at twice the budget.
	other := append(append([]Class(nil), classes...), classes...)
	if n := len(other[0].Items); n > 1 {
		other[0].Items = other[0].Items[:n-1]
	}
	minCost := func(it Item) float64 { return -it.Cost }
	tb.solve(other, 2*deadline, minCost)
	// A call that reads only the other table's first class leaves the
	// other table unread, so the next call recycles it.
	for _, o := range [][]Class{other, other[:1]} {
		if _, err := solvePriced(BatchJob{Name: "o", Classes: o, DeadlineSec: 2 * deadline}, prices, &s); err != nil {
			t.Fatal(err)
		}
	}
	job := BatchJob{Name: "j", Classes: classes, DeadlineSec: deadline}
	wantPriced, wantPaper := refPricedSolve(job, prices), refSolvePaper(classes, deadline)
	paper := func(it Item) float64 {
		if it.Cost <= 0 {
			return math.Inf(1)
		}
		return 1 / it.Cost
	}
	for pass := 1; pass <= 2; pass++ {
		spare, builds := len(s.spare), s.builds
		got, err := solvePriced(job, prices, &s)
		if err != nil {
			t.Fatal(err)
		}
		if diff := sameBits(got, wantPriced); diff != "" {
			t.Fatalf("priced solve of %+v under %v at deadline %d, pass %d through one scratch: %s", classes, prices, deadline, pass, diff)
		}
		if pass == 2 && s.builds != builds {
			t.Fatalf("pass 2 of %+v built a table where it could read pass 1's", classes)
		}
		if pass == 1 && s.builds > builds && len(s.spare) > spare {
			t.Fatalf("pass 1 of %+v built in fresh storage where it could recycle the other table's", classes)
		}
		got, best, err := tb.solve(classes, deadline, paper)
		if err != nil {
			t.Fatal(err)
		}
		if got.Feasible {
			got.Objective = best
		}
		if diff := sameBits(got, wantPaper); diff != "" {
			t.Fatalf("paper objective on %+v at deadline %d, pass %d through one table: %s", classes, deadline, pass, diff)
		}
	}
	checkBudgetReads(t, classes, deadline, &tb)
}

// checkBudgetReads builds the min-cost table once at deadline in tb and
// reads smaller budgets off it — none, one second short of the fastest
// plan, the fastest plan, half, one second short and all of the
// deadline — and fails unless each read picks exactly what a fresh
// SolveMinCost to that budget picks, feasibility included.
func checkBudgetReads(t *testing.T, classes []Class, deadline int, tb *table) {
	t.Helper()
	tb.solve(classes, deadline, func(it Item) float64 { return -it.Cost })
	fastest := MinTotalTime(classes)
	for _, b := range []int{0, fastest - 1, fastest, deadline / 2, deadline - 1, deadline} {
		if b < 0 || b > deadline {
			continue
		}
		want, err := SolveMinCost(classes, b)
		if err != nil {
			t.Fatal(err)
		}
		pick := make([]int, len(classes))
		if ok := tb.at(b, pick); ok != want.Feasible || (ok && !slices.Equal(pick, want.Pick)) {
			t.Fatalf("%+v built to %d, read at %d: feasible %v picks %v; a solve to %d: %+v", classes, deadline, b, ok, pick, b, want)
		}
	}
}

// FuzzSolveMatchesReference checks the step DP against the dense
// reference on fuzzer-built tables, with fresh storage and through one
// reused scratch, and a table built once against fresh solves to
// smaller budgets. Run it with
//
//	go test -run '^$' -fuzz FuzzSolveMatchesReference -fuzztime 15s ./internal/mckp
//
// The seed corpus lives in testdata/fuzz/FuzzSolveMatchesReference.
func FuzzSolveMatchesReference(f *testing.F) {
	f.Add([]byte{200, 1, 0x85, 0x13, 0x0a, 0x21, 0x80, 0x00, 0x14, 0x02})
	f.Add([]byte{0, 0, 0x80, 0x00, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		classes, deadline, prices, ok := decodeTable(data)
		if !ok {
			return
		}
		checkAgainstReference(t, classes, deadline, prices)
		checkScratchAgainstReference(t, classes, deadline, prices)
	})
}
