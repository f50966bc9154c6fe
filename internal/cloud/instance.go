// Package cloud models the cloud-provider substrate of the paper: a
// catalog of VM instance types (general-purpose and memory-optimized
// families at 1/2/4/8 vCPUs), an AWS-style per-second on-demand billing
// model, bounded fleets of rentable instances (fleet.go) and spot
// revocations (revocation.go). An instance is a dedicated VM: its
// runtime model (perf.Machine) has no co-tenants.
package cloud

import (
	"fmt"
	"math"
)

// Family is an instance family with a characteristic resource balance.
type Family int

// Instance families. The paper's recommendations map synthesis and STA
// onto general-purpose instances and placement and routing onto
// memory-optimized instances (its Sec. III.A takeaways).
const (
	GeneralPurpose   Family = iota // balanced compute/memory ("m5"-like)
	MemoryOptimized                // high memory-to-core ratio ("r5"-like)
	ComputeOptimized               // high clock, AVX ("c5"-like)
)

func (f Family) String() string {
	switch f {
	case GeneralPurpose:
		return "general-purpose"
	case MemoryOptimized:
		return "memory-optimized"
	case ComputeOptimized:
		return "compute-optimized"
	}
	return fmt.Sprintf("family(%d)", int(f))
}

// InstanceType describes one rentable VM configuration.
type InstanceType struct {
	Name   string
	Family Family
	VCPUs  int
	MemGiB float64
	// AVX reports whether the underlying processor exposes 256-bit
	// vector extensions; the catalog's general-purpose family is backed
	// by older silicon without them, which is what makes the paper's
	// "run placement on AVX hardware" recommendation actionable.
	AVX bool
	// LLCSliceMiB is the last-level-cache slice accompanying each vCPU.
	LLCSliceMiB float64
	// PricePerHour is the on-demand price in USD.
	PricePerHour float64
	// MinBillSec is the minimum billing granularity in seconds: any
	// lease shorter than this is billed as if it ran this long (AWS
	// per-second billing carries a 60 s minimum). 0 means pure
	// per-second billing with no floor.
	MinBillSec float64
	// Revocable marks spot/preemptible capacity: the provider may
	// reclaim the instance mid-lease (see RevocationModel). On-demand
	// types are never revoked.
	Revocable bool
	// OnDemand names the on-demand counterpart of a revocable type —
	// the escalation target when a job gives up on spot capacity.
	// Empty for on-demand types.
	OnDemand string
}

// Cost returns the billed USD amount for occupying the instance for the
// given runtime. Cloud billing is per second with no fractions — the
// paper leans on this to make its knapsack times integral — so the
// runtime is rounded up to whole seconds, and never below the
// instance's minimum billing granularity.
func (it InstanceType) Cost(seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	billed := math.Ceil(seconds)
	if billed < it.MinBillSec {
		billed = it.MinBillSec
	}
	return billed * it.PricePerHour / 3600
}

// Catalog is a set of instance types queryable by family and size.
type Catalog struct {
	Types []InstanceType
}

// familyPricing captures the linear base + per-vCPU on-demand pricing
// the AWS tables exhibit within one family.
type familyPricing struct {
	prefix  string
	family  Family
	memPer  float64 // GiB per vCPU
	avx     bool
	llcMiB  float64
	base    float64 // USD/h fixed component
	perVCPU float64 // USD/h per vCPU
}

// DefaultCatalog returns the instance catalog used throughout the
// reproduction. Prices are calibrated to the cost columns of the
// paper's Table I (general-purpose ~= $0.094/h at 1 vCPU rising to
// ~$0.40/h at 8; memory-optimized ~= $0.11/h to ~$0.54/h).
func DefaultCatalog() *Catalog {
	fams := []familyPricing{
		{"gp", GeneralPurpose, 4, false, 2, 0.050, 0.044},
		{"mem", MemoryOptimized, 8, true, 2, 0.052, 0.060},
		{"cpu", ComputeOptimized, 2, true, 2, 0.040, 0.040},
	}
	var c Catalog
	for _, f := range fams {
		for _, v := range []int{1, 2, 4, 8} {
			c.Types = append(c.Types, InstanceType{
				Name:         fmt.Sprintf("%s.%dx", f.prefix, v),
				Family:       f.family,
				VCPUs:        v,
				MemGiB:       f.memPer * float64(v),
				AVX:          f.avx,
				LLCSliceMiB:  f.llcMiB,
				PricePerHour: f.base + float64(f.perVCPU*float64(v)),
			})
		}
	}
	return &c
}

// ByName returns the named instance type, or an error.
func (c *Catalog) ByName(name string) (InstanceType, error) {
	for _, it := range c.Types {
		if it.Name == name {
			return it, nil
		}
	}
	return InstanceType{}, fmt.Errorf("cloud: no instance type %q", name)
}

// WithMinBill returns a copy of the catalog whose every instance type
// bills with the given minimum granularity (seconds). The default
// catalog bills purely per second so the paper's Table I calibration
// is untouched; fleets that model realistic short-lease billing opt in
// through this.
func (c *Catalog) WithMinBill(seconds float64) *Catalog {
	out := &Catalog{Types: append([]InstanceType(nil), c.Types...)}
	for i := range out.Types {
		out.Types[i].MinBillSec = seconds
	}
	return out
}

// WithSpot returns a copy of the catalog extended with a spot-priced
// variant of every on-demand type: "<name>.spot", the same hardware at
// the given fractional discount (0.7 means 70% off on-demand), marked
// Revocable and pointing back at its OnDemand counterpart. Variants
// are appended after the originals, so Size's first match and every
// existing name keep resolving to on-demand capacity; spot is only
// ever an explicit opt-in. A discount outside (0,1), NaN included, is
// refused.
func (c *Catalog) WithSpot(discount float64) (*Catalog, error) {
	if !(discount > 0 && discount < 1) {
		return nil, fmt.Errorf("cloud: spot discount %g outside (0,1)", discount)
	}
	out := &Catalog{Types: append([]InstanceType(nil), c.Types...)}
	for _, it := range c.Types {
		if it.Revocable {
			continue // never derive spot-of-spot
		}
		spot := it
		spot.Name = it.Name + ".spot"
		spot.PricePerHour = it.PricePerHour * (1 - discount)
		spot.Revocable = true
		spot.OnDemand = it.Name
		out.Types = append(out.Types, spot)
	}
	return out, nil
}

// Size returns the instance of the given family and vCPU count.
func (c *Catalog) Size(f Family, vcpus int) (InstanceType, error) {
	for _, it := range c.Types {
		if it.Family == f && it.VCPUs == vcpus {
			return it, nil
		}
	}
	return InstanceType{}, fmt.Errorf("cloud: no %v instance with %d vCPUs", f, vcpus)
}
