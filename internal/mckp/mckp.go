// Package mckp solves the multi-choice knapsack problem at the heart
// of the paper's deployment optimizer (its Sec. III.C): pick exactly
// one VM configuration per flow stage so the total runtime meets a
// deadline and the deployment cost is optimal.
//
// Two exact pseudo-polynomial dynamic programs are provided — the
// paper's literal objective (maximize the sum of reciprocal prices via
// the Dudzinski–Walukiewicz recurrence) and the operationally intended
// objective (minimize total dollars) — plus a greedy upgrade heuristic
// used as an ablation baseline. Runtimes are integral seconds, an
// assumption the paper justifies by per-second cloud billing.
package mckp

import (
	"fmt"
	"math"
	"sort"
)

// Item is one configuration choice within a class (stage).
type Item struct {
	Label   string
	TimeSec int     // runtime in whole seconds
	Cost    float64 // deployment cost in USD
}

// Class is one flow stage with its alternative configurations.
type Class struct {
	Name  string
	Items []Item
}

// Selection is a solution: one item index per class.
type Selection struct {
	Feasible  bool
	Pick      []int // item index per class, aligned with input order
	TotalTime int
	TotalCost float64
	// Objective is the maximized paper objective (sum of 1/cost) when
	// produced by SolvePaper; zero otherwise.
	Objective float64
}

// ExportedPick is one class's solved choice in self-describing form:
// the class and item labels plus the item's time/cost, so downstream
// layers (deployment execution, reports) can consume a plan without
// knowing item indices.
type ExportedPick struct {
	Class   string
	Label   string
	TimeSec int
	Cost    float64
}

// Export renders a feasible selection against the classes it solved as
// labeled picks, in class order.
func (s Selection) Export(classes []Class) ([]ExportedPick, error) {
	if !s.Feasible {
		return nil, fmt.Errorf("mckp: infeasible selection exports no plan")
	}
	// An empty choice table must not silently export a zero-stage plan:
	// downstream layers would schedule nothing and bill nothing, hiding
	// the configuration error that emptied the table.
	if len(classes) == 0 {
		return nil, fmt.Errorf("mckp: empty choice table exports no plan")
	}
	for _, cl := range classes {
		if len(cl.Items) == 0 {
			return nil, fmt.Errorf("mckp: class %q has no items to export", cl.Name)
		}
	}
	if len(s.Pick) != len(classes) {
		return nil, fmt.Errorf("mckp: selection picks %d classes, classes are %d", len(s.Pick), len(classes))
	}
	out := make([]ExportedPick, len(classes))
	for l, j := range s.Pick {
		if j < 0 || j >= len(classes[l].Items) {
			return nil, fmt.Errorf("mckp: pick %d out of range for class %q", j, classes[l].Name)
		}
		it := classes[l].Items[j]
		out[l] = ExportedPick{Class: classes[l].Name, Label: it.Label, TimeSec: it.TimeSec, Cost: it.Cost}
	}
	return out, nil
}

func validate(classes []Class, deadline int) error {
	if len(classes) == 0 {
		return fmt.Errorf("mckp: no classes")
	}
	if deadline < 0 {
		return fmt.Errorf("mckp: negative deadline %d", deadline)
	}
	for _, cl := range classes {
		if len(cl.Items) == 0 {
			return fmt.Errorf("mckp: class %q has no items", cl.Name)
		}
		for _, it := range cl.Items {
			if it.TimeSec < 0 || it.Cost < 0 {
				return fmt.Errorf("mckp: class %q has negative item %+v", cl.Name, it)
			}
		}
	}
	return nil
}

// SolvePaper maximizes the paper's objective sum(1/p_ij) subject to
// sum(t_ij) <= deadline, exactly one pick per class, using the
// Dudzinski–Walukiewicz dynamic program over integral time.
func SolvePaper(classes []Class, deadline int) (Selection, error) {
	if err := validate(classes, deadline); err != nil {
		return Selection{}, err
	}
	score := func(it Item) float64 {
		if it.Cost <= 0 {
			return math.Inf(1)
		}
		return 1 / it.Cost
	}
	sel, best := solveDP(classes, deadline, score)
	if sel.Feasible {
		sel.Objective = best
	}
	return sel, nil
}

// SolveMinCost minimizes total cost subject to the deadline, the
// operational variant the paper's Table I reports (its "Min Cost($)"
// column).
func SolveMinCost(classes []Class, deadline int) (Selection, error) {
	if err := validate(classes, deadline); err != nil {
		return Selection{}, err
	}
	sel, _ := solveDP(classes, deadline, func(it Item) float64 { return -it.Cost })
	return sel, nil
}

// step is one piece of a DP layer: from budget start up to the next
// step's start the layer's best value is val, reached by item pick
// (-1: no selection fits).
type step struct {
	start int
	val   float64
	pick  int
}

// solveDP runs the layered DP z_l(c) = best over j of
// z_{l-1}(c - t_lj) + value(item_lj) for 0 <= c <= deadline, larger
// being better. Each layer is a step function of the budget, so it is
// kept as its steps — the budgets where (value, pick) changes — and
// built by visiting only the budgets where some item's view of the
// previous layer changes (a previous step's start plus the item's
// time). Between two such budgets every item reads the same previous
// value, so each visited budget gets exactly the float sums, compared
// in item order with the first strictly greater winning, that a dense
// row over every second would give it: the picks and totals match that
// row's to the bit, while work is O(items × steps) and memory does not
// grow with the deadline. It returns the selection and its value.
func solveDP(classes []Class, deadline int, value func(Item) float64) (Selection, float64) {
	negInf := math.Inf(-1)
	// steps[off[l]:off[l+1]] is z_l; z_0 is 0 at every budget.
	steps := append(make([]step, 0, 8*(len(classes)+1)), step{start: 0, val: 0, pick: -1})
	off := append(make([]int, 0, len(classes)+2), 0, 1)
	var vals []float64
	var seen []int
	for _, cl := range classes {
		prev := steps[off[len(off)-2]:off[len(off)-1]]
		vals = vals[:0]
		for _, it := range cl.Items {
			vals = append(vals, value(it))
		}
		// seen[j] counts prev's steps starting at or below c - t_j: item j
		// reads prev's step seen[j]-1 at budget c (none while it is 0).
		seen = append(seen[:0], make([]int, len(vals))...)
		// c visits 0 and each budget at which some item reads a new step
		// of prev, in order; nextC is -1 once none is left within deadline.
		for c := 0; c >= 0; {
			best, pick, nextC := negInf, -1, -1
			for j, it := range cl.Items {
				k := seen[j]
				for k < len(prev) && prev[k].start <= c-it.TimeSec {
					k++
				}
				seen[j] = k
				if k > 0 {
					if base := prev[k-1].val; !math.IsInf(base, -1) {
						if cand := base + vals[j]; cand > best {
							best, pick = cand, j
						}
					}
				}
				// The next budget at which item j reads a new step.
				if k < len(prev) && it.TimeSec <= deadline-prev[k].start {
					if at := prev[k].start + it.TimeSec; nextC < 0 || at < nextC {
						nextC = at
					}
				}
			}
			if last := steps[len(steps)-1]; len(steps) == off[len(off)-1] || last.val != best || last.pick != pick {
				steps = append(steps, step{start: c, val: best, pick: pick})
			}
			c = nextC
		}
		off = append(off, len(steps))
	}
	// The optimum sits at the full budget: the last layer's last step.
	best := steps[len(steps)-1].val
	if math.IsInf(best, -1) {
		return Selection{Feasible: false}, best
	}
	sel := Selection{Feasible: true, Pick: make([]int, len(classes))}
	c := deadline
	for l := len(classes) - 1; l >= 0; l-- {
		layer := steps[off[l+1]:off[l+2]]
		// The step covering c: the last one starting at or below it.
		j := layer[sort.Search(len(layer), func(i int) bool { return layer[i].start > c })-1].pick
		if j < 0 {
			return Selection{Feasible: false}, best
		}
		sel.Pick[l] = j
		it := classes[l].Items[j]
		sel.TotalTime += it.TimeSec
		sel.TotalCost += it.Cost
		c -= it.TimeSec
	}
	return sel, best
}

// SolveGreedy is the upgrade heuristic baseline: start from the
// cheapest item per class, then while the deadline is violated, apply
// the upgrade with the best time-saved-per-extra-dollar ratio. It is
// not optimal — bench_test.go's ablation quantifies the gap.
func SolveGreedy(classes []Class, deadline int) (Selection, error) {
	if err := validate(classes, deadline); err != nil {
		return Selection{}, err
	}
	n := len(classes)
	pick := make([]int, n)
	for l, cl := range classes {
		for j, it := range cl.Items {
			if it.Cost < cl.Items[pick[l]].Cost {
				pick[l] = j
			}
		}
	}
	total := func() (int, float64) {
		t, p := 0, 0.0
		for l, j := range pick {
			t += classes[l].Items[j].TimeSec
			p += classes[l].Items[j].Cost
		}
		return t, p
	}
	for {
		t, _ := total()
		if t <= deadline {
			break
		}
		bestL, bestJ := -1, -1
		bestRatio := math.Inf(-1)
		for l := 0; l < n; l++ {
			curIt := classes[l].Items[pick[l]]
			for j, it := range classes[l].Items {
				saved := curIt.TimeSec - it.TimeSec
				if saved <= 0 {
					continue
				}
				extra := it.Cost - curIt.Cost
				var ratio float64
				if extra <= 0 {
					ratio = math.Inf(1) // free speedup
				} else {
					ratio = float64(saved) / extra
				}
				if ratio > bestRatio {
					bestRatio = ratio
					bestL, bestJ = l, j
				}
			}
		}
		if bestL < 0 {
			return Selection{Feasible: false}, nil // no upgrades left
		}
		pick[bestL] = bestJ
	}
	t, p := total()
	return Selection{Feasible: true, Pick: pick, TotalTime: t, TotalCost: p}, nil
}

// FixedProvision returns the selection that uses item index j in every
// class (the paper's over-provisioning j=fastest and under-provisioning
// j=cheapest baselines in Fig. 6), ignoring any deadline.
func FixedProvision(classes []Class, j func(Class) int) (Selection, error) {
	if err := validate(classes, 0); err != nil {
		return Selection{}, err
	}
	sel := Selection{Feasible: true, Pick: make([]int, len(classes))}
	for l, cl := range classes {
		idx := j(cl)
		if idx < 0 || idx >= len(cl.Items) {
			return Selection{}, fmt.Errorf("mckp: provision index %d out of range for class %q", idx, cl.Name)
		}
		sel.Pick[l] = idx
		sel.TotalTime += cl.Items[idx].TimeSec
		sel.TotalCost += cl.Items[idx].Cost
	}
	return sel, nil
}

// Fastest returns the index of the minimum-time item of a class.
func Fastest(cl Class) int {
	best := 0
	for j, it := range cl.Items {
		if it.TimeSec < cl.Items[best].TimeSec {
			best = j
		}
	}
	return best
}

// Cheapest returns the index of the minimum-cost item of a class.
func Cheapest(cl Class) int {
	best := 0
	for j, it := range cl.Items {
		if it.Cost < cl.Items[best].Cost {
			best = j
		}
	}
	return best
}

// MinTotalTime returns the smallest achievable total runtime, the
// feasibility threshold below which every solver reports NA.
func MinTotalTime(classes []Class) int {
	t := 0
	for _, cl := range classes {
		t += cl.Items[Fastest(cl)].TimeSec
	}
	return t
}

// MaxTotalTime returns the total runtime of the slowest plan — each
// class's longest item — the budget under which every plan fits.
func MaxTotalTime(classes []Class) int {
	t := 0
	for _, cl := range classes {
		worst := 0
		for _, it := range cl.Items {
			worst = max(worst, it.TimeSec)
		}
		t += worst
	}
	return t
}
