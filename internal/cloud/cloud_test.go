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
