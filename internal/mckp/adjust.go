package mckp

import (
	"fmt"
	"maps"
	"math"
	"slices"

	"edacloud/internal/cache"
)

// Hazards maps instance-type labels to revocation rates in events per
// hour of busy time — the mckp rendering of a RevocationModel's
// per-type hazards. Absent labels (and on-demand types) carry rate 0.
type Hazards map[string]float64

// Validate refuses a rate the expectation cannot price: NaN, ±Inf or
// negative. Labels are checked in sorted order, so the error does not
// depend on map order.
func (hz Hazards) Validate() error {
	for _, label := range slices.Sorted(maps.Keys(hz)) {
		if rate := hz[label]; !(rate >= 0) || math.IsInf(rate, 1) {
			return fmt.Errorf("mckp: hazard rate %g for %q must be finite and non-negative", rate, label)
		}
	}
	return nil
}

// maxExpectedAttempts caps the expectation blow-up for items whose
// runtime dwarfs the mean time between revocations (lambda*t large):
// past ~100 expected attempts the item is effectively unrunnable on
// spot and the exact magnitude no longer changes any decision.
const maxExpectedAttempts = 100

// ExpectedAttempts is the expected number of runs of a tSec stage until
// one finishes without a revocation, under an exponential hazard of
// ratePerHour: e^(lambda*t), capped at maxExpectedAttempts. Rate 0 (or
// a zero-length stage) is exactly 1.
func ExpectedAttempts(tSec, ratePerHour float64) float64 {
	if ratePerHour <= 0 || tSec <= 0 {
		return 1
	}
	a := math.Exp(ratePerHour / 3600 * tSec)
	if a > maxExpectedAttempts {
		return maxExpectedAttempts
	}
	return a
}

// ExpectedBusySec is the expected total machine-busy seconds to push a
// tSec stage through under the hazard — truncated attempts included:
// (e^(lambda*t) - 1) / lambda, which tends to t as the rate tends to 0.
// A capped item is priced as if lambda*t were exactly ln(cap), so the
// busy time stays continuous at the cap, never falls below t and never
// falls as the rate rises.
func ExpectedBusySec(tSec, ratePerHour float64) float64 {
	a := ExpectedAttempts(tSec, ratePerHour)
	switch a {
	case 1:
		return tSec
	case maxExpectedAttempts:
		return tSec * (maxExpectedAttempts - 1) / math.Log(maxExpectedAttempts)
	}
	return (a - 1) / (ratePerHour / 3600)
}

// Adjust is the one rewrite a choice table goes through before the DP
// and the batch shadow-price loop run, in one pass:
//
//   - every item of a class whose hits entry is true collapses to
//     {label, cache.ProbeTimeSec, $0}: the store serves the stage
//     whatever machine the plan would have bought. A hit books no
//     lease, so it is never risk-priced. hits may be shorter than
//     classes (the missing tail misses).
//
//   - every other item whose label carries a hazard is priced at its
//     expectation under a memoryless revocation process (the one the
//     cloud package's RevocationModel draws from): the wall clock the
//     scheduler should budget, lost attempts and retry backoffs
//     included, and the bill the truncated-lease ledger will charge:
//
//     TimeSec = ceil(E[busy] + (E[attempts]-1) * backoffSec)
//     Cost    = (Cost / TimeSec) * E[busy]
//
// The table keeps its shape, so a selection solved against the result
// indexes directly into the input. The input is never mutated; when no
// class hits and no item carries a hazard the input slice itself is
// returned, without allocating.
func Adjust(classes []Class, hits []bool, hz Hazards, backoffSec float64) []Class {
	var out []Class
	for l, cl := range classes {
		hit := l < len(hits) && hits[l]
		if !hit && !hazardous(cl, hz) {
			if out != nil {
				out[l] = cl
			}
			continue
		}
		if out == nil {
			out = make([]Class, len(classes))
			copy(out, classes[:l])
		}
		items := make([]Item, len(cl.Items))
		for j, it := range cl.Items {
			switch rate := hz[it.Label]; {
			case hit:
				it = Item{Label: it.Label, TimeSec: cache.ProbeTimeSec, Cost: 0}
			case rate > 0 && it.TimeSec > 0:
				t := float64(it.TimeSec)
				busy := ExpectedBusySec(t, rate)
				it.TimeSec = int(math.Ceil(busy + (ExpectedAttempts(t, rate)-1)*backoffSec))
				it.Cost = it.Cost / t * busy
			}
			items[j] = it
		}
		out[l] = Class{Name: cl.Name, Items: items}
	}
	if out == nil {
		return classes
	}
	return out
}

// hazardous reports whether Adjust risk-prices any item of the class.
func hazardous(cl Class, hz Hazards) bool {
	if len(hz) == 0 {
		return false
	}
	for _, it := range cl.Items {
		if hz[it.Label] > 0 && it.TimeSec > 0 {
			return true
		}
	}
	return false
}
