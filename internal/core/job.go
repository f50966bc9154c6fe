// Package core implements the paper's end-to-end workflow (its
// Fig. 1): characterize the four EDA applications under different VM
// configurations, predict per-configuration runtimes for unseen
// designs with the GCN model, and optimize cloud deployments with the
// multi-choice knapsack solver so deadlines are met at minimum cost.
//
// Flow execution itself lives in internal/flow (Stage/Pipeline/
// Scheduler); this package keeps the JobKind aliases
// and layers the characterization, prediction and optimization
// experiments on top.
package core

import (
	"edacloud/internal/cloud"
	"edacloud/internal/flow"
)

// JobKind identifies one of the four characterized EDA applications.
// It is an alias of flow.JobKind so the two layers share one currency.
type JobKind = flow.JobKind

// The four applications of the paper's characterization.
const (
	JobSynthesis = flow.JobSynthesis
	JobPlacement = flow.JobPlacement
	JobRouting   = flow.JobRouting
	JobSTA       = flow.JobSTA
)

// JobKinds lists all four in flow order.
func JobKinds() []JobKind { return flow.JobKinds() }

// RecommendedFamily returns the paper's instance-family recommendation
// (Sec. III.A takeaways): synthesis and STA on general-purpose VMs,
// placement and routing on memory-optimized VMs.
func RecommendedFamily(k JobKind) cloud.Family {
	switch k {
	case JobPlacement, JobRouting:
		return cloud.MemoryOptimized
	default:
		return cloud.GeneralPurpose
	}
}
