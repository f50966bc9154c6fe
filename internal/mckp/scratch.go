package mckp

import (
	"fmt"
	"math"
	"slices"
)

// table is one knapsack's layered step table. Its key holds, per class,
// the item count, the items' times and their values' bits; class l
// starts at key[cls[l]]. It is solved to budget (-1: not yet), a round
// needs it built to want, and used is the last call that read it.
type table struct {
	hash               uint64
	key                []uint64
	budget, want, used int
	steps              []step
	cls, off, seen     []int
}

// appendKey appends the key of classes, valued by value, to dst.
func appendKey(dst []uint64, classes []Class, value func(Item) float64) []uint64 {
	for _, cl := range classes {
		dst = append(dst, uint64(len(cl.Items)))
		for _, it := range cl.Items {
			dst = append(dst, uint64(it.TimeSec))
		}
		for _, it := range cl.Items {
			dst = append(dst, math.Float64bits(value(it)))
		}
	}
	return dst
}

// step is one piece of a DP layer: from budget start to the next step
// the layer's best value is val, reached by item pick (-1: none fits).
type step struct {
	start int
	val   float64
	pick  int
}

// build runs the layered DP z_l(c) = max over j of z_{l-1}(c - t_lj) +
// v_lj for 0 <= c <= budget. Each layer is a step function of the
// budget, kept as the budgets where (value, pick) changes and built by
// visiting only those where some item reads a new step of the previous
// layer, each with exactly the float sums a dense row over every second
// would compare (in item order, first strictly greater wins): picks and
// totals match that row's to the bit in O(items × steps). A step at
// budget c reads only steps at or below c, so a build to a larger
// budget holds the one to any smaller budget.
func (t *table) build(budget int) {
	negInf := math.Inf(-1)
	if cap(t.steps) == 0 {
		t.steps = make([]step, 0, 64)
	}
	// steps[off[l]:off[l+1]] is z_l; z_0 is 0 at every budget.
	steps := append(t.steps[:0], step{start: 0, val: 0, pick: -1})
	off := append(t.off[:0], 0, 1)
	t.cls = t.cls[:0]
	for p := 0; p < len(t.key); {
		n := int(t.key[p])
		t.cls = append(t.cls, p)
		times, vals := t.key[p+1:p+1+n], t.key[p+1+n:p+1+2*n]
		p += 1 + 2*n
		prev := steps[off[len(off)-2]:off[len(off)-1]]
		// seen[j] counts prev's steps starting at or below c - t_j: item j
		// reads prev's step seen[j]-1 at budget c (none while it is 0).
		t.seen = sized(t.seen, n)
		seen := t.seen
		// c visits 0 and each budget at which some item reads a new step
		// of prev, in order; nextC is -1 once none is left within budget.
		for c := 0; c >= 0; {
			best, pick, nextC := negInf, -1, -1
			for j, tj := range times {
				tj := int(tj)
				k := seen[j]
				for k < len(prev) && prev[k].start <= c-tj {
					k++
				}
				seen[j] = k
				if k > 0 {
					if base := prev[k-1].val; !math.IsInf(base, -1) {
						if cand := base + math.Float64frombits(vals[j]); cand > best {
							best, pick = cand, j
						}
					}
				}
				// The next budget at which item j reads a new step.
				if k < len(prev) && tj <= budget-prev[k].start {
					if at := prev[k].start + tj; nextC < 0 || at < nextC {
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
	t.steps, t.off, t.budget = steps, off, budget
}

// at backtracks the selection at budget, at most the built one, into
// pick: the last layer's step covering the budget, then in each layer
// before it the step covering what the later picks leave. It reports
// false when no selection fits.
func (t *table) at(budget int, pick []int) bool {
	c := budget
	for l := len(t.cls) - 1; l >= 0; l-- {
		layer := t.steps[t.off[l+1]:t.off[l+2]]
		// The last step starting at or below c (the first starts at 0).
		lo, hi := 0, len(layer)
		for hi-lo > 1 {
			if mid := int(uint(lo+hi) >> 1); layer[mid].start <= c {
				lo = mid
			} else {
				hi = mid
			}
		}
		if pick[l] = layer[lo].pick; pick[l] < 0 {
			return false
		}
		c -= int(t.key[t.cls[l]+1+pick[l]])
	}
	return true
}

// Scratch holds BatchOptimizeState's knapsack tables, keyed by their
// items' times and priced values. One solved to a budget answers every
// smaller budget, so a round builds one table per key, to the largest
// budget its jobs read it at, and reads one the previous call used
// wherever it reaches the job's budget. It also lends the candidates'
// storage, which a losing candidate hands on to the next. serve.Engine
// keeps one for its lifetime; nil gives a call its own. A selection
// never points into it.
type Scratch struct {
	call int
	// tables were read by this call or the last, spare ones are recycled;
	// index maps a key's hash to a table, which matches if its key does.
	tables, spare []*table
	index         map[uint64]*table
	// The price loop's price per estimator label, the key looked up, the
	// table each job reads and the tables it builds.
	prices       []float64
	key          []uint64
	reads, build []*table
	builds       int // tables built over the Scratch's life
	est          estimator
	// cands are the candidates no one holds.
	cands []*candidate
}

// take lends a candidate's storage; give hands it back.
func (s *Scratch) take() *candidate {
	if n := len(s.cands); n > 0 {
		c := s.cands[n-1]
		s.cands = s.cands[:n-1]
		return c
	}
	return &candidate{}
}

func (s *Scratch) give(c *candidate) { s.cands = append(s.cands, c) }

// begin starts a call, recycling the tables the previous one left unread.
func (s *Scratch) begin() {
	s.call++
	if s.index == nil {
		s.index = map[uint64]*table{}
	}
	clear(s.index)
	kept := s.tables[:0]
	for _, t := range s.tables {
		if t.used < s.call-1 {
			s.spare = append(s.spare, t)
			continue
		}
		kept = append(kept, t)
		s.index[t.hash] = t
	}
	clear(s.tables[len(kept):])
	s.tables = kept
}

// solve runs one round's min-cost DP per job of est, each item's cost
// raised by its label's shadow price times its runtime. It puts the
// picks in c, with true (unpriced) totals summed in class order: the
// priced costs only steer the picks. It reports false when a job has
// no feasible plan, which takes precedence over the error of a later
// job with a negative priced cost. prices holds one price per
// estimator label; nil prices every label at zero.
func (s *Scratch) solve(est *estimator, prices []float64, c *candidate) (bool, error) {
	var negative error
	job, item := BatchJob{}, 0 // the job and estimator item being valued
	value := func(it Item) float64 {
		price := 0.0
		if prices != nil {
			price = prices[est.label[item]]
		}
		cost := it.Cost + float64(price*float64(it.TimeSec))
		if item++; cost < 0 && negative == nil {
			negative = fmt.Errorf("mckp: job %q item %q has negative priced cost %g", job.Name, it.Label, cost)
		}
		return -cost
	}
	s.reads, s.build = s.reads[:0], s.build[:0]
	for _, job = range est.jobs {
		if s.key = appendKey(s.key[:0], job.Classes, value); negative != nil {
			break
		}
		var h uint64
		for _, w := range s.key {
			h = (h ^ w) * 0x9e3779b97f4a7c15
		}
		t := s.index[h]
		if t == nil || !slices.Equal(t.key, s.key) {
			if n := len(s.spare); n > 0 {
				t, s.spare = s.spare[n-1], s.spare[:n-1]
			} else {
				t = &table{}
			}
			t.hash, t.key, t.budget, t.want = h, append(t.key[:0], s.key...), -1, -1
			s.index[h] = t
			s.tables = append(s.tables, t)
		}
		t.used = s.call
		if budget := effectiveDeadline(job); budget > t.want {
			if t.want == t.budget {
				s.build = append(s.build, t)
			}
			t.want = budget
		}
		s.reads = append(s.reads, t)
	}
	// Only missing tables are built, each once, to the largest budget
	// the round reads it at.
	for _, t := range s.build {
		t.build(t.want)
	}
	s.builds += len(s.build)
	c.sels, c.pick = sized(c.sels, len(s.reads)), sized(c.pick, est.stageAt[len(s.reads)])
	c.picks = sized(c.picks, len(s.reads))
	for i, t := range s.reads {
		job := est.jobs[i]
		pick := c.pick[est.stageAt[i]:est.stageAt[i+1]:est.stageAt[i+1]]
		if !t.at(effectiveDeadline(job), pick) {
			return false, nil
		}
		c.picks[i], c.sels[i] = pick, retotal(job, pick)
	}
	return true, negative
}
