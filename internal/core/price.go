package core

import (
	"fmt"
	"math"

	"edacloud/internal/cloud"
	"edacloud/internal/flow"
	"edacloud/internal/mckp"
)

// This file is the paper's "$ cost calculator" (Fig. 1, Sec. III.C):
// the one place a stage runtime becomes a priced choice and the one
// place a choice table becomes knapsack classes. Measured and
// predicted runtimes go through the same rule, so the DSE's cheap rung
// (predicted prices) and full rung (measured prices) rank recipes in
// one currency.

// BuildDeploymentProblem converts a characterization into the MCKP
// instance of the paper's Sec. III.C. General-purpose silicon lacks
// AVX in the catalog, so each runtime is re-derived from the profiled
// event counts on the machine the stage would actually rent.
func BuildDeploymentProblem(char *DesignCharacterization, catalog *cloud.Catalog) (*DeploymentProblem, error) {
	return priceStages(char.Design, char.VCPUs, catalog, func(k flow.JobKind, vi int, it cloud.InstanceType) float64 {
		return machineFor(it.VCPUs, it.AVX, char.WorkScale).Seconds(char.Profiles[vi][int(k)].Report)
	})
}

// BuildPredictedDeploymentProblem assembles the MCKP instance from
// predicted per-vCPU runtimes (aligned with vcpus) instead of measured
// profiles — the paper's production path (Fig. 1: prediction -> $ cost
// calculator -> optimization). Predictions are floored at one second:
// the GCN extrapolates and must not emit non-positive runtimes into a
// DP over integral seconds.
func BuildPredictedDeploymentProblem(design string, vcpus []int, runtimes map[flow.JobKind][]float64, catalog *cloud.Catalog) (*DeploymentProblem, error) {
	for _, k := range flow.JobKinds() {
		if len(runtimes[k]) != len(vcpus) {
			return nil, fmt.Errorf("core: %v prediction width %d, want %d", k, len(runtimes[k]), len(vcpus))
		}
	}
	return priceStages(design, vcpus, catalog, func(k flow.JobKind, vi int, _ cloud.InstanceType) float64 {
		return max(runtimes[k][vi], 1)
	})
}

// priceStages builds the choice table: each job's candidates are its
// recommended family's sizes at the vCPU grid, running for
// seconds(k, vi, instance) and billed per second at the type's price.
// Catalogs extended with spot pricing (Catalog.WithSpot) expose a
// discounted revocable twin per type; it shares the hardware, so the
// runtime carries over and only the bill drops.
func priceStages(design string, vcpus []int, catalog *cloud.Catalog, seconds func(k flow.JobKind, vi int, it cloud.InstanceType) float64) (*DeploymentProblem, error) {
	stages := make([][]StageChoice, len(flow.JobKinds()))
	for l, k := range flow.JobKinds() {
		for vi, v := range vcpus {
			it, err := catalog.Size(RecommendedFamily(k), v)
			if err != nil {
				return nil, err
			}
			secs := seconds(k, vi, it)
			stages[l] = append(stages[l], StageChoice{Job: k, Instance: it, Seconds: secs, Cost: it.Cost(secs)})
			if spot, err := catalog.ByName(it.Name + ".spot"); err == nil {
				stages[l] = append(stages[l], StageChoice{Job: k, Instance: spot, Seconds: secs, Cost: spot.Cost(secs)})
			}
		}
	}
	return newProblem(design, stages), nil
}

// RecommendedFamily returns the paper's instance-family recommendation
// (Sec. III.A takeaways): synthesis and STA on general-purpose VMs,
// placement and routing on memory-optimized VMs.
func RecommendedFamily(k flow.JobKind) cloud.Family {
	switch k {
	case flow.JobPlacement, flow.JobRouting:
		return cloud.MemoryOptimized
	default:
		return cloud.GeneralPurpose
	}
}

// newProblem is the only constructor of a DeploymentProblem: it
// derives the knapsack classes from the stage table (one class per
// job in flow.JobKinds order, one item per choice, runtime rounded up to
// whole seconds), so the two views cannot drift apart.
func newProblem(design string, stages [][]StageChoice) *DeploymentProblem {
	prob := &DeploymentProblem{Design: design, Stages: stages, Classes: make([]mckp.Class, len(stages))}
	for l, stage := range stages {
		cl := mckp.Class{Name: flow.JobKinds()[l].String(), Items: make([]mckp.Item, len(stage))}
		for j, c := range stage {
			cl.Items[j] = mckp.Item{Label: c.Instance.Name, TimeSec: int(math.Ceil(c.Seconds)), Cost: c.Cost}
		}
		prob.Classes[l] = cl
	}
	return prob
}
