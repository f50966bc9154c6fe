package par

import "edacloud/internal/perf"

// StageConfig bundles the two execution knobs every flow engine
// accepts: the worker-pool bound and the performance probe. The four
// stage engines (synthesis, placement, routing, STA) embed it in their
// Options so flow-level code can thread one uniform configuration
// through a whole pipeline instead of re-plumbing the same pair of
// fields per stage (flow.StageConfig is an alias of this type).
type StageConfig struct {
	// Workers bounds the engine's worker pool; 0 means GOMAXPROCS.
	// Results are identical for every value.
	Workers int
	// Probe receives simulated performance events; nil runs the engine
	// uninstrumented.
	Probe *perf.Probe
}
