// Design-space exploration: the scenario motivating the paper's Fig. 3.
// A team wants to know how many vCPUs to rent for routing each of its
// designs; the answer depends on design size, because small designs
// stop scaling early. This example sweeps routing speedup across
// 1..8 vCPUs for four designs of very different sizes and prints the
// cheapest configuration that achieves 90% of the attainable speedup.
//
//	go run ./examples/designspace
package main

import (
	"fmt"
	"log"

	"edacloud/internal/cloud"
	"edacloud/internal/core"
	"edacloud/internal/techlib"
)

func main() {
	lib := techlib.Default14nm()
	catalog := cloud.DefaultCatalog()
	opts := core.CharacterizeOptions{Scale: 0.02}

	fmt.Println("Routing speedup by design size (Fig. 3 scenario)")
	fmt.Printf("%-12s", "design")
	for v := 1; v <= 8; v++ {
		fmt.Printf("%7dv", v)
	}
	fmt.Printf("  %s\n", "recommended")

	for _, name := range []string{"dyn_node", "ibex", "swerv", "sparc_core"} {
		curve, err := core.RoutingSpeedupCurve(lib, name, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s", name)
		for _, s := range curve {
			fmt.Printf("%8.2f", s)
		}

		// Pick the smallest vCPU count achieving 90% of the max speedup:
		// beyond it, extra vCPUs are billed but barely help (the paper's
		// "provisioned vCPUs might not offer the expected benefit").
		best := curve[len(curve)-1]
		pick := len(curve)
		for v := 1; v <= len(curve); v++ {
			if curve[v-1] >= 0.9*best {
				pick = v
				break
			}
		}
		// Round to a rentable size.
		for _, size := range []int{1, 2, 4, 8} {
			if size >= pick {
				pick = size
				break
			}
		}
		it, err := catalog.Size(cloud.MemoryOptimized, pick)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s ($%.3f/h)\n", it.Name, it.PricePerHour)
	}
}
