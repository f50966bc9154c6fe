// Quickstart: generate a design, run the full EDA flow on it through
// the composable pipeline API, and ask the deployment optimizer which
// cloud machines to rent for a deadline.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"edacloud/internal/cloud"
	"edacloud/internal/core"
	"edacloud/internal/designs"
	"edacloud/internal/flow"
	"edacloud/internal/techlib"
)

func main() {
	lib := techlib.Default14nm()

	// 0. Run the flow once with the pipeline API. (ibex is the paper's
	//    small RISC-V core; scale shrinks it so this example finishes in
	//    seconds.) Stages stream progress events as they run.
	g, err := designs.EvalDesign("ibex", 0.03)
	if err != nil {
		log.Fatal(err)
	}
	p := flow.NewPipeline(flow.WithEvents(func(e flow.Event) {
		if e.Type == flow.StageStarted {
			fmt.Printf("running %s (%d/%d)\n", e.Stage, e.Index+1, e.Total)
		}
	}))
	rc, err := p.Run(g, lib)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("flow done: %d cells, WNS %.3f ns\n\n", rc.Netlist.NumCells(), rc.Timing.WNS)

	// 1. Characterize the four EDA jobs of the design under 1/2/4/8
	//    vCPUs (each configuration profiles its own pipeline run).
	char, err := core.CharacterizeEval(lib, "ibex", core.CharacterizeOptions{Scale: 0.03})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("characterized %s: %d cells\n\n", char.Design, char.Cells)
	for _, k := range flow.JobKinds() {
		p1, _ := char.Profile(k, 1)
		p8, _ := char.Profile(k, 8)
		fmt.Printf("  %-10s  %7.0fs at 1 vCPU, %7.0fs at 8 vCPUs (%.1fx), cache miss %.0f%%\n",
			k, p1.Seconds, p8.Seconds, p1.Seconds/p8.Seconds, p1.CacheMissPct)
	}

	// 2. Build the deployment problem: each stage gets candidates from
	//    its recommended instance family with per-second billing.
	prob, err := core.BuildDeploymentProblem(char, cloud.DefaultCatalog())
	if err != nil {
		log.Fatal(err)
	}

	// 3. Optimize: the tightest feasible schedule, a comfortable one,
	//    and one that cannot be met.
	minTime := prob.MinTime()
	for _, deadline := range []int{2 * minTime, minTime + minTime/8, minTime, minTime - 5} {
		plan, err := prob.Optimize(deadline)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ndeadline %4ds -> %s\n", deadline, plan)
	}
}
