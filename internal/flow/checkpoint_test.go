package flow

import (
	"testing"

	"edacloud/internal/designs"
)

// TestCheckpointRestoreRoundTrip: a checkpoint taken mid-flow restores
// into a fresh context, the hash stamp verifies, and resuming the
// remaining stages reproduces the uninterrupted run's artifacts
// exactly.
func TestCheckpointRestoreRoundTrip(t *testing.T) {
	g := designs.MustEvalDesign("ibex", testScale)
	pipe := NewPipeline()

	// Uninterrupted reference run.
	want, err := pipe.Run(g.Clone(), lib)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: collect a checkpoint per stage boundary.
	var cps []*Checkpoint
	pipe2 := NewPipeline(WithCheckpoints(func(cp *Checkpoint) { cps = append(cps, cp) }))
	got, err := pipe2.Run(g.Clone(), lib)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 4 {
		t.Fatalf("%d checkpoints, want one per stage", len(cps))
	}
	for i, cp := range cps {
		if len(cp.Kinds) != i+1 {
			t.Fatalf("checkpoint %d covers %v", i, cp.Kinds)
		}
		if cp.Hash == 0 {
			t.Fatalf("checkpoint %d has no content hash", i)
		}
	}

	// "Revocation" after placement: resume from the placement-boundary
	// checkpoint into a fresh context and run only routing + sta.
	cp := cps[1]
	if !cp.Completed(JobSynthesis) || !cp.Completed(JobPlacement) || cp.Completed(JobRouting) {
		t.Fatalf("checkpoint 1 covers %v", cp.Kinds)
	}
	rc := pipe2.NewRunContext(g.Clone(), lib)
	if err := pipe2.ResumeOn(rc, cp); err != nil {
		t.Fatal(err)
	}
	// The resumed run must equal the uninterrupted one bit for bit:
	// identical checkpoints of the final states have identical hashes.
	hWant := want.Checkpoint()
	hGot := rc.Checkpoint()
	if hWant.Hash != hGot.Hash {
		t.Fatalf("resumed run diverged: hash %016x vs uninterrupted %016x", hGot.Hash, hWant.Hash)
	}
	if h2 := got.Checkpoint(); h2.Hash != hWant.Hash {
		t.Fatalf("checkpointed run diverged: %016x vs %016x", h2.Hash, hWant.Hash)
	}

	// Restored artifacts are the same objects the checkpoint captured.
	if rc.Netlist != cp.artifacts.Netlist || rc.Placement != cp.artifacts.Placement {
		t.Fatal("restore did not install the checkpoint's artifacts")
	}
	if rc.Routing == nil || rc.Timing == nil {
		t.Fatal("resume did not run the remaining stages")
	}
}

// TestCheckpointTamperDetected: mutating a captured artifact between
// capture and restore fails the content-hash verification.
func TestCheckpointTamperDetected(t *testing.T) {
	g := designs.MustEvalDesign("dyn_node", testScale)
	pipe := NewPipeline()
	rc, err := pipe.Run(g, lib)
	if err != nil {
		t.Fatal(err)
	}
	cp := rc.Checkpoint()
	fresh := pipe.NewRunContext(designs.MustEvalDesign("dyn_node", testScale), lib)
	if err := fresh.Restore(cp); err != nil {
		t.Fatalf("clean restore rejected: %v", err)
	}

	// A torn/tampered artifact: a cell center, and a pad coordinate
	// only routing and timing read.
	pl := cp.artifacts.Placement
	for name, v := range map[string]*float64{"X[0]": &pl.X[0], "PIx[0]": &pl.PIx[0]} {
		orig := *v
		*v = orig + 1000
		if err := fresh.Restore(cp); err == nil {
			t.Fatalf("checkpoint with tampered %s restored without error", name)
		}
		*v = orig
		if err := fresh.Restore(cp); err != nil {
			t.Fatalf("restored after undoing the %s tamper: %v", name, err)
		}
	}

	// A stale stamp is equally rejected.
	cp.Hash ^= 1
	if err := fresh.Restore(cp); err == nil {
		t.Fatal("wrong stamp restored without error")
	}
	if err := fresh.Restore(nil); err == nil {
		t.Fatal("nil checkpoint restored")
	}
}
