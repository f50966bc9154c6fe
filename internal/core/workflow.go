// Package core implements the paper's end-to-end workflow (its
// Fig. 1): characterize the four EDA applications under different VM
// configurations, predict per-configuration runtimes for unseen
// designs with the GCN model, and optimize cloud deployments with the
// multi-choice knapsack solver so deadlines are met at minimum cost.
//
// Flow execution itself lives in internal/flow (Stage/Pipeline/
// Scheduler), which also declares the four stage kinds (flow.JobKind);
// this package layers the characterization, prediction and
// optimization experiments on top.
package core

import "edacloud/internal/flow"

// JobKinds forwards to flow.JobKinds. It stays only because the bench
// module calls it; everything else says flow.JobKinds.
func JobKinds() []flow.JobKind { return flow.JobKinds() }
