// Command characterize regenerates the paper's characterization
// experiments: Fig. 2a-d (branch misses, cache misses, vector-FP share
// and total runtime of synthesis, placement, routing and STA under
// 1/2/4/8 vCPUs) and Fig. 3 (routing speedup versus vCPU count across
// the eight evaluation designs).
//
// Usage:
//
//	characterize -figure all -design sparc_core -scale 0.03
//	characterize -figure 3 -scale 0.02
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"edacloud/internal/core"
	"edacloud/internal/designs"
	"edacloud/internal/techlib"
)

func main() {
	design := flag.String("design", "sparc_core", "evaluation design for Fig. 2 (dyn_node..sparc_core)")
	scale := flag.Float64("scale", 0.03, "design scale factor (1 = full size; keep small for quick runs)")
	figure := flag.String("figure", "all", "which figure to regenerate: 2a, 2b, 2c, 2d, 2 (all of 2a-2d), 3, or all")
	workers := flag.Int("workers", 0, "bound for the kernel pools of the one flow run that profiles every VM config (0 = all cores; results identical)")
	flag.Parse()
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected argument %q: every option is a -flag", flag.Arg(0)))
	}

	switch *figure {
	case "2a", "2b", "2c", "2d", "2", "3", "all":
	default:
		fail(fmt.Errorf("unknown -figure %q: want one of 2a, 2b, 2c, 2d, 2, 3, all", *figure))
	}

	lib := techlib.Default14nm()
	opts := core.CharacterizeOptions{Scale: *scale, Workers: *workers}

	want := func(f string) bool {
		if *figure == "all" || *figure == f {
			return true
		}
		// "2" expands to the whole Fig. 2 family (one characterization
		// run, four tables) without the Fig. 3 design sweep.
		return *figure == "2" && len(f) == 2 && f[0] == '2'
	}

	if want("2a") || want("2b") || want("2c") || want("2d") {
		char, err := core.CharacterizeEval(lib, *design, opts)
		if err != nil {
			fail(err)
		}
		fmt.Printf("Characterization of %s (%d cells, work scale %.0fx)\n\n",
			char.Design, char.Cells, char.WorkScale)
		if want("2a") {
			printMetric(char, "Figure 2a: Branch Misses (%)", func(p core.JobProfile) float64 { return p.BranchMissPct })
		}
		if want("2b") {
			printMetric(char, "Figure 2b: Cache Misses (%)", func(p core.JobProfile) float64 { return p.CacheMissPct })
		}
		if want("2c") {
			printMetric(char, "Figure 2c: Floating-point AVX Operations (%)", func(p core.JobProfile) float64 { return p.FPVectorPct })
		}
		if want("2d") {
			printMetric(char, "Figure 2d: Total Runtime (extrapolated seconds)", func(p core.JobProfile) float64 { return p.Seconds })
		}
	}

	if want("3") {
		fmt.Println("Figure 3: Routing speedup vs #vCPUs")
		fmt.Printf("%-12s", "design")
		for v := 1; v <= 8; v++ {
			fmt.Printf("%8dv", v)
		}
		fmt.Println()
		for _, name := range designs.EvalDesignNames() {
			curve, err := core.RoutingSpeedupCurve(lib, name, 8, opts)
			if err != nil {
				fail(err)
			}
			fmt.Printf("%-12s", name)
			for _, s := range curve {
				fmt.Printf("%9.2f", s)
			}
			fmt.Println()
		}
	}
}

func printMetric(char *core.DesignCharacterization, title string, metric func(core.JobProfile) float64) {
	fmt.Println(title)
	fmt.Printf("%-12s", "job")
	for _, v := range char.VCPUs {
		fmt.Printf("%8dv", v)
	}
	fmt.Println()
	for _, k := range core.JobKinds() {
		fmt.Printf("%-12s", k)
		for _, v := range char.VCPUs {
			p, err := char.Profile(k, v)
			if err != nil {
				fail(err)
			}
			fmt.Printf("%9.2f", metric(p))
		}
		fmt.Println()
	}
	fmt.Println(strings.Repeat("-", 50))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "characterize:", err)
	os.Exit(1)
}
