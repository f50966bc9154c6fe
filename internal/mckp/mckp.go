// Package mckp solves the multi-choice knapsack problem at the heart
// of the paper's deployment optimizer (its Sec. III.C): pick exactly
// one VM configuration per flow stage so the total runtime meets a
// deadline and the deployment cost is optimal.
//
// An exact pseudo-polynomial dynamic program over integral time (the
// Dudzinski–Walukiewicz recurrence) minimizes total dollars, the
// objective the paper's Table I reports. Runtimes are integral seconds, an
// assumption the paper justifies by per-second cloud billing. A table
// solved to a budget answers every smaller budget exactly, so a Scratch
// keeps the tables its last batch solve used, as serve.Engine does.
package mckp

import "fmt"

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

// SolveMinCost minimizes total cost subject to the deadline, the
// operational variant the paper's Table I reports (its "Min Cost($)"
// column).
func SolveMinCost(classes []Class, deadline int) (Selection, error) {
	return new(table).solve(classes, deadline)
}

// solve validates the table, keys t by it and its items' negated
// costs, builds t to deadline and reads it there, summing the totals in
// reverse class order.
func (t *table) solve(classes []Class, deadline int) (Selection, error) {
	if err := validate(classes, deadline); err != nil {
		return Selection{}, err
	}
	t.key = appendKey(t.key[:0], classes, func(it Item) float64 { return -it.Cost })
	t.build(deadline)
	pick := make([]int, len(classes))
	if !t.at(deadline, pick) {
		return Selection{Feasible: false}, nil
	}
	sel := Selection{Feasible: true, Pick: pick}
	for l := len(classes) - 1; l >= 0; l-- {
		it := classes[l].Items[pick[l]]
		sel.TotalTime += it.TimeSec
		sel.TotalCost += it.Cost
	}
	return sel, nil
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
