package flow

import (
	"slices"
	"testing"

	"edacloud/internal/designs"
)

// filled lists the artifact slots that currently hold a value.
func filled(a *Artifacts) []slot {
	var out []slot
	for s := range slots {
		if slots[s].get(a) != nil {
			out = append(out, slot(s))
		}
	}
	return out
}

// TestKindDeclarations runs the default flow stage by stage and holds
// every JobKind to its row of the kinds table: the default flow lists
// the kinds in JobKinds order under the row's name, and each stage
// fills exactly its makes slots, refuses to run (with the long-standing
// error text) while a needs slot is empty, tolerates an empty optional
// slot, and has an inputAnchor exactly when the needs are met.
func TestKindDeclarations(t *testing.T) {
	wantErr := map[JobKind]string{
		JobPlacement: "no netlist in context (run a synthesis stage first)",
		JobRouting:   "no placed netlist in context (run synthesis and placement first)",
		JobSTA:       "no netlist in context (run a synthesis stage first)",
	}
	pipe := NewPipeline()
	stages := pipe.Stages()
	if len(stages) != len(kinds) {
		t.Fatalf("default flow has %d stages, kinds table %d rows", len(stages), len(kinds))
	}
	for i, k := range JobKinds() {
		if s := stages[i]; s.Kind() != k || s.Name() != kinds[k].name || k.String() != kinds[k].name {
			t.Errorf("stage %d: kind %v named %q, want kind %d named %q", i, s.Kind(), s.Name(), k, kinds[k].name)
		}
	}
	if got := JobKind(len(kinds)).String(); got != "job(4)" {
		t.Errorf("out-of-range kind prints %q, want job(4)", got)
	}
	full := pipe.newRunContext(designs.MustEvalDesign("dyn_node", testScale), lib)
	for _, s := range stages {
		k := s.Kind()
		d := kinds[k]
		if _, ok := full.inputAnchor(k); !ok {
			t.Fatalf("%s: no input anchor with every predecessor run", k)
		}
		before := filled(&full.Artifacts)
		if err := s.Run(full); err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		var made []slot
		for _, sl := range filled(&full.Artifacts) {
			if !slices.Contains(before, sl) {
				made = append(made, sl)
			}
		}
		if !slices.Equal(made, d.makes) {
			t.Errorf("%s filled slots %v, declares makes %v", k, made, d.makes)
		}
	}

	// without returns a context holding the full run's artifacts minus
	// one slot.
	without := func(sl slot) *RunContext {
		rc := pipe.newRunContext(full.Design, lib)
		rc.Artifacts = full.Artifacts
		slots[sl].copy(&rc.Artifacts, &Artifacts{})
		return rc
	}
	for _, s := range stages {
		k := s.Kind()
		withAll, _ := full.inputAnchor(k)
		for _, sl := range kinds[k].needs {
			rc := without(sl)
			if err := s.Run(rc); err == nil || err.Error() != wantErr[k] {
				t.Errorf("%s without slot %d: error %v, want %q", k, sl, err, wantErr[k])
			}
			if _, ok := rc.inputAnchor(k); ok {
				t.Errorf("%s without slot %d: inputAnchor reports ok", k, sl)
			}
		}
		for _, sl := range kinds[k].optional {
			rc := without(sl)
			if err := s.Run(rc); err != nil {
				t.Errorf("%s without optional slot %d: %v", k, sl, err)
			}
			anchor, ok := rc.inputAnchor(k)
			if !ok || anchor == withAll {
				t.Errorf("%s without optional slot %d: anchor %#x ok=%v, with it %#x — must be defined and differ",
					k, sl, anchor, ok, withAll)
			}
		}
	}

	// The root kind reads the run's inputs instead of artifacts.
	noDesign := pipe.newRunContext(nil, lib)
	if _, ok := noDesign.inputAnchor(JobSynthesis); ok {
		t.Error("synthesis anchor defined without a design")
	}
	if _, ok := full.inputAnchor(JobKind(len(kinds))); ok {
		t.Error("a kind outside the table has an input anchor")
	}
}
