package flow

import (
	"fmt"
	"slices"

	"edacloud/internal/hash"
	"edacloud/internal/perf"
)

// This file is the artifact half of the repo's crash-recovery story:
// the fleet simulation models a revoked stage as losing only the work
// since the last stage boundary, and Checkpoint/Restore is what makes
// that boundary real for an actual pipeline run. A Checkpoint captures
// the typed artifacts plus the per-stage perf reports and stamps them
// with a hash over each one's content fingerprint; Restore recomputes
// the fingerprints from content before installing anything (never from
// the run's memoized hashes, which a tampered artifact would still
// match), so a resume is verifiably working from the same artifacts
// the interrupted run produced — not from a torn or tampered snapshot.

// Checkpoint is a stage-boundary snapshot of a flow run.
type Checkpoint struct {
	// Kinds lists the completed stages, in canonical JobKinds order —
	// the stages a resumed run may skip.
	Kinds []JobKind
	// Hash folds the captured artifacts' and reports' content
	// fingerprints, stamped at capture time.
	Hash uint64

	artifacts Artifacts
	reports   map[JobKind]*perf.Report
}

// Checkpoint snapshots the run's current artifacts and reports,
// stamped with their content hash. Call it at a stage boundary (the
// WithCheckpoints pipeline option does) — artifacts are captured by
// reference, which is safe because stages replace their predecessors'
// outputs rather than mutating them.
func (rc *RunContext) Checkpoint() *Checkpoint {
	cp := &Checkpoint{artifacts: rc.Artifacts, reports: map[JobKind]*perf.Report{}}
	for _, k := range JobKinds() {
		if rep := rc.Reports[k]; rep != nil {
			cp.Kinds = append(cp.Kinds, k)
			cp.reports[k] = rep
		}
	}
	cp.Hash = cp.contentHash()
	return cp
}

// Restore verifies the checkpoint against its stamped content hash and
// installs its artifacts and reports into the run context. A hash
// mismatch — an artifact mutated or torn since capture — restores
// nothing.
func (rc *RunContext) Restore(cp *Checkpoint) error {
	if cp == nil {
		return fmt.Errorf("flow: nil checkpoint")
	}
	if got := cp.contentHash(); got != cp.Hash {
		return fmt.Errorf("flow: checkpoint hash mismatch: stamped %016x, content %016x", cp.Hash, got)
	}
	rc.Artifacts = cp.artifacts
	if rc.Reports == nil {
		rc.Reports = map[JobKind]*perf.Report{}
	}
	for k, rep := range cp.reports {
		rc.Reports[k] = rep
	}
	return nil
}

// Completed reports whether the checkpoint covers stage k.
func (cp *Checkpoint) Completed(k JobKind) bool { return slices.Contains(cp.Kinds, k) }

// ResumeOn restores a checkpoint into the run context and executes
// only the pipeline stages past it, in order — the recovery path a
// revoked spot instance triggers. Stages the checkpoint covers are
// skipped; everything else runs as RunOn would, the artifact store
// included.
func (p *Pipeline) ResumeOn(rc *RunContext, cp *Checkpoint) error {
	if err := rc.Restore(cp); err != nil {
		return err
	}
	return p.run(rc, cp)
}

// contentHash folds the completed kinds and the content fingerprint of
// every artifact slot (0 for an empty one) and every report into one
// stamp.
func (cp *Checkpoint) contentHash() uint64 {
	h := hash.New()
	h.Int(len(cp.Kinds))
	for _, k := range cp.Kinds {
		h.Int(int(k))
	}
	for _, sd := range slots {
		if v := sd.get(&cp.artifacts); v != nil {
			h.Word(v.Fingerprint())
		} else {
			h.Word(0)
		}
	}
	for _, k := range JobKinds() {
		if rep := cp.reports[k]; rep != nil {
			h.Int(int(k))
			h.Word(rep.Fingerprint())
		}
	}
	return uint64(h)
}
