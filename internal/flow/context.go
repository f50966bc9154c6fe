package flow

import (
	"context"

	"edacloud/internal/aig"
	"edacloud/internal/perf"
	"edacloud/internal/techlib"
)

// RunContext carries one flow run: its inputs, the typed artifacts the
// stages produce, and the resolved execution configuration. Stages
// read the artifacts of their predecessors from it and store their
// own; after Pipeline.Run it is the flow's result object.
type RunContext struct {
	// Ctx is the run's cancellation context; the pipeline checks it at
	// stage boundaries and custom stages may poll it mid-work.
	Ctx context.Context
	// Design is the input AIG the flow operates on.
	Design *aig.Graph
	// Lib is the technology library stages map against.
	Lib *techlib.Library

	// Artifacts holds what the stages have produced so far.
	Artifacts
	// Reports collects one performance report per executed stage.
	Reports map[JobKind]*perf.Report

	cfg *config
	// ids memoizes the artifacts' canonical content hashes (see
	// identity.go); cacheSteps records the run's frozen-phase cache
	// lookups for the scheduler's serial accounting replay.
	ids        artifactIDs
	cacheSteps []cacheStep
}

// StageConfig resolves the pipeline-level execution configuration for
// one stage: the pipeline-wide worker bound and a freshly built probe —
// each stage gets its own instrumentation, mirroring the paper's setup
// where every application runs as a separately profiled process.
func (rc *RunContext) StageConfig(k JobKind) StageConfig {
	var sc StageConfig
	if rc.cfg == nil {
		return sc
	}
	sc.Workers = rc.cfg.workers
	if rc.cfg.newProbe != nil {
		sc.Probe = rc.cfg.newProbe(k)
	}
	return sc
}

// resolveConfig merges a stage's own StageConfig (set when the stage
// was constructed) over the pipeline-level one: explicit stage
// settings win field by field.
func (rc *RunContext) resolveConfig(k JobKind, own StageConfig) StageConfig {
	sc := rc.StageConfig(k)
	if own.Workers != 0 {
		sc.Workers = own.Workers
	}
	if own.Probe != nil {
		sc.Probe = own.Probe
	}
	return sc
}
