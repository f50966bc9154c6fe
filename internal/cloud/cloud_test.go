package cloud

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultCatalogShape(t *testing.T) {
	c := DefaultCatalog()
	if len(c.Types) != 12 {
		t.Fatalf("catalog has %d types, want 12", len(c.Types))
	}
	for _, f := range []Family{GeneralPurpose, MemoryOptimized, ComputeOptimized} {
		var sizes []InstanceType
		for i := 0; i < 4; i++ {
			it, err := c.Size(f, 1<<i)
			if err != nil {
				t.Fatal(err)
			}
			if it.PricePerHour <= 0 || it.MemGiB <= 0 {
				t.Errorf("%s: non-positive price or memory", it.Name)
			}
			sizes = append(sizes, it)
		}
		// Prices strictly increase with size within a family.
		for i := 1; i < len(sizes); i++ {
			if sizes[i].PricePerHour <= sizes[i-1].PricePerHour {
				t.Errorf("%v: price not increasing at %s", f, sizes[i].Name)
			}
		}
	}
	// Memory-optimized carries more memory per vCPU than general-purpose.
	gp, _ := c.Size(GeneralPurpose, 4)
	mem, _ := c.Size(MemoryOptimized, 4)
	if mem.MemGiB <= gp.MemGiB {
		t.Error("memory-optimized not memory-richer than general-purpose")
	}
	if !mem.AVX || gp.AVX {
		t.Error("AVX flags: want memory-optimized AVX, general-purpose non-AVX")
	}
}

func TestCatalogLookups(t *testing.T) {
	c := DefaultCatalog()
	it, err := c.ByName("gp.4x")
	if err != nil || it.VCPUs != 4 || it.Family != GeneralPurpose {
		t.Fatalf("ByName(gp.4x) = %+v, %v", it, err)
	}
	if _, err := c.ByName("nope"); err == nil {
		t.Fatal("ByName on absent type should error")
	}
	if _, err := c.Size(MemoryOptimized, 3); err == nil {
		t.Fatal("Size with absent vCPU count should error")
	}
	if GeneralPurpose.String() == "" || Family(99).String() == "" {
		t.Fatal("empty family string")
	}
}

func TestPerSecondBilling(t *testing.T) {
	c := DefaultCatalog()
	it, _ := c.Size(GeneralPurpose, 1)
	// 3600 seconds bills exactly one hour.
	if got := it.Cost(3600); math.Abs(got-it.PricePerHour) > 1e-12 {
		t.Fatalf("Cost(3600) = %g, want %g", got, it.PricePerHour)
	}
	// Fractional seconds round up.
	if got, want := it.Cost(0.2), it.PricePerHour/3600; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Cost(0.2) = %g, want %g", got, want)
	}
	if it.Cost(0) != 0 || it.Cost(-5) != 0 {
		t.Fatal("non-positive runtime should cost nothing")
	}
}

// Property: billing is monotone and per-second granular.
func TestQuickBillingMonotone(t *testing.T) {
	it := InstanceType{PricePerHour: 0.36}
	f := func(a, b float64) bool {
		a, b = math.Abs(a), math.Abs(b)
		if a > b {
			a, b = b, a
		}
		return it.Cost(a) <= it.Cost(b)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleSingleTenant(t *testing.T) {
	h := DefaultHost()
	alloc, err := h.Schedule([]CGroup{{Name: "only", DemandCores: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(alloc[0].Got-4) > 1e-9 || alloc[0].Throttle != 1 {
		t.Fatalf("single tenant alloc = %+v", alloc[0])
	}
	if alloc[0].Slowdown() != 0 {
		t.Fatalf("idle-host slowdown = %g", alloc[0].Slowdown())
	}
}

func TestScheduleEqualSharesSplitEvenly(t *testing.T) {
	h := Host{Cores: 8}
	alloc, err := h.Schedule([]CGroup{
		{Name: "a", DemandCores: 8},
		{Name: "b", DemandCores: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(alloc[0].Got-4) > 1e-9 || math.Abs(alloc[1].Got-4) > 1e-9 {
		t.Fatalf("equal split failed: %+v", alloc)
	}
	if math.Abs(alloc[0].Slowdown()-1.0) > 1e-9 {
		t.Fatalf("slowdown = %g, want 1 (runs at half speed)", alloc[0].Slowdown())
	}
}

func TestScheduleSharesWeighting(t *testing.T) {
	h := Host{Cores: 6}
	alloc, err := h.Schedule([]CGroup{
		{Name: "heavy", Shares: 2048, DemandCores: 6},
		{Name: "light", Shares: 1024, DemandCores: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(alloc[0].Got-4) > 1e-9 || math.Abs(alloc[1].Got-2) > 1e-9 {
		t.Fatalf("2:1 shares split = %+v", alloc)
	}
}

func TestScheduleQuotaCaps(t *testing.T) {
	h := Host{Cores: 8}
	alloc, err := h.Schedule([]CGroup{
		{Name: "capped", QuotaCores: 2, DemandCores: 8},
		{Name: "free", DemandCores: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(alloc[0].Got-2) > 1e-9 {
		t.Fatalf("quota not enforced: %+v", alloc[0])
	}
	// Freed capacity flows to the unconstrained tenant.
	if math.Abs(alloc[1].Got-6) > 1e-9 {
		t.Fatalf("spare capacity not redistributed: %+v", alloc[1])
	}
}

func TestScheduleUnderloadedHostSatisfiesAll(t *testing.T) {
	h := Host{Cores: 14}
	alloc, err := h.Schedule([]CGroup{
		{Name: "a", DemandCores: 3},
		{Name: "b", DemandCores: 2},
		{Name: "c", DemandCores: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range alloc {
		if math.Abs(a.Got-a.Demand) > 1e-9 {
			t.Fatalf("underloaded host throttled %s: %+v", a.Name, a)
		}
	}
}

func TestScheduleZeroDemandGroup(t *testing.T) {
	h := Host{Cores: 4}
	alloc, err := h.Schedule([]CGroup{
		{Name: "idle", DemandCores: 0},
		{Name: "busy", DemandCores: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if alloc[0].Got != 0 || alloc[0].Slowdown() != 0 {
		t.Fatalf("idle group alloc = %+v", alloc[0])
	}
	if math.Abs(alloc[1].Got-4) > 1e-9 {
		t.Fatalf("busy group alloc = %+v", alloc[1])
	}
}

func TestScheduleRejectsBadInput(t *testing.T) {
	if _, err := (Host{Cores: 0}).Schedule(nil); err == nil {
		t.Fatal("zero-core host accepted")
	}
	if _, err := DefaultHost().Schedule([]CGroup{{Name: "x", DemandCores: -1}}); err == nil {
		t.Fatal("negative demand accepted")
	}
}

// Property: allocations never exceed capacity, demand, or quota.
func TestQuickScheduleInvariants(t *testing.T) {
	h := Host{Cores: 14}
	f := func(d1, d2, d3 uint8, q2 uint8) bool {
		groups := []CGroup{
			{Name: "a", DemandCores: float64(d1 % 20)},
			{Name: "b", DemandCores: float64(d2 % 20), QuotaCores: float64(q2%8) + 0.5},
			{Name: "c", DemandCores: float64(d3 % 20), Shares: 512},
		}
		alloc, err := h.Schedule(groups)
		if err != nil {
			return false
		}
		var total float64
		for i, a := range alloc {
			total += a.Got
			if a.Got > a.Demand+1e-9 {
				return false
			}
			if groups[i].QuotaCores > 0 && a.Got > groups[i].QuotaCores+1e-9 {
				return false
			}
		}
		return total <= float64(h.Cores)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestInterferenceGrowsWithBackgroundLoad(t *testing.T) {
	h := DefaultHost()
	idle, err := h.Interference(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if idle != 0 {
		t.Fatalf("idle interference = %g", idle)
	}
	busy, err := h.Interference(8, []CGroup{
		{Name: "t1", DemandCores: 8},
		{Name: "t2", DemandCores: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if busy <= 0 {
		t.Fatalf("loaded-host interference = %g, want > 0", busy)
	}
	moreBusy, err := h.Interference(8, []CGroup{
		{Name: "t1", DemandCores: 14},
		{Name: "t2", DemandCores: 14},
		{Name: "t3", DemandCores: 14},
	})
	if err != nil {
		t.Fatal(err)
	}
	if moreBusy <= busy {
		t.Fatalf("interference not increasing: %g then %g", busy, moreBusy)
	}
}
