package flow

import (
	"fmt"

	"edacloud/internal/aig"
)

// HierarchicalBatch is one huge design split into schedulable
// sub-design jobs — the hierarchical flow mode that lets a
// million-gate design exploit design-level parallelism on a bounded
// fleet instead of saturating one machine. Each cone partition of the
// parent becomes a standalone aig.SubDesign wrapped in a plain Job (a
// copy of the base job, Plan included), so every placement mode, the
// forecast machinery and the conformance invariants apply to
// hierarchical batches unchanged.
type HierarchicalBatch struct {
	// Design is the parent graph the batch was split from.
	Design *aig.Graph
	// Parts is the cone partitioning the split used.
	Parts *aig.ConePartitioning
	// Subs holds the extracted sub-designs, one per partition.
	Subs []aig.SubDesign
	// Jobs holds one flow job per sub-design, in partition order. The
	// scheduler returns results in job order, so Schedule.Jobs can be
	// passed to Stitch directly.
	Jobs []Job
}

// Hierarchical splits base.Design into cone partitions of roughly
// grain AND nodes (grain <= 0 means 256) and returns one job per
// partition, each inheriting base's library, options, instance and
// deadline. Job names are "<design>/p<NNN>" in partition order.
func Hierarchical(base Job, grain int) (*HierarchicalBatch, error) {
	if base.Design == nil {
		return nil, fmt.Errorf("flow: hierarchical batch needs a design")
	}
	g := base.Design
	cp := g.PartitionCones(grain)
	if cp.NumParts() == 0 {
		return nil, fmt.Errorf("flow: design %s has no output cones to partition", g.Name)
	}
	name := base.Name
	if name == "" {
		name = g.Name
	}
	subs := g.ExtractSubDesigns(cp)
	jobs := make([]Job, len(subs))
	for pi := range subs {
		j := base
		j.Name = fmt.Sprintf("%s/p%03d", name, pi)
		j.Design = subs[pi].Graph
		jobs[pi] = j
	}
	return &HierarchicalBatch{Design: g, Parts: cp, Subs: subs, Jobs: jobs}, nil
}

// Stitch reassembles the sub-design jobs' optimized AIGs into one
// design-level graph, in partition order. results must be parallel to
// Jobs (Schedule.Jobs is). Every job must have succeeded and run a
// synthesis stage, and each optimized graph must preserve its
// sub-design interface — which every synthesis pass does, so this only
// rejects flows that never synthesized or custom stages that reshaped
// the I/O.
func (hb *HierarchicalBatch) Stitch(results []JobResult) (*aig.Graph, error) {
	if len(results) != len(hb.Subs) {
		return nil, fmt.Errorf("flow: %d results for %d sub-designs", len(results), len(hb.Subs))
	}
	reworked := append([]aig.SubDesign(nil), hb.Subs...)
	for i := range results {
		r := &results[i]
		if r.Err != nil {
			return nil, fmt.Errorf("flow: sub-design job %s failed: %w", r.Name, r.Err)
		}
		var opt *aig.Graph
		if r.Run != nil {
			opt = r.Run.Optimized
		}
		if opt == nil {
			return nil, fmt.Errorf("flow: sub-design job %s produced no optimized AIG; hierarchical flows need a synthesis stage", r.Name)
		}
		sub := &hb.Subs[i]
		if opt.NumInputs() != len(sub.Imports) || opt.NumOutputs() != len(sub.Outputs)+len(sub.Exports) {
			return nil, fmt.Errorf("flow: sub-design job %s changed its interface: %d in/%d out, want %d/%d",
				r.Name, opt.NumInputs(), opt.NumOutputs(), len(sub.Imports), len(sub.Outputs)+len(sub.Exports))
		}
		reworked[i].Graph = opt
	}
	return aig.StitchSubDesigns(hb.Design, hb.Parts, reworked), nil
}
