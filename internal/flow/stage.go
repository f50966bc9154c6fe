package flow

import (
	"edacloud/internal/hash"
	"edacloud/internal/perf"
	"edacloud/internal/place"
	"edacloud/internal/route"
	"edacloud/internal/sta"
	"edacloud/internal/synth"
)

// Stage is one schedulable unit of an EDA flow. Implementations read
// their prerequisites from the RunContext, run their engine, and store
// artifacts plus a perf.Report back; the pipeline never inspects what
// a stage does beyond its Kind, which is how custom stages substitute
// for built-in ones.
type Stage interface {
	// Name is the human-readable stage label used in events and errors.
	Name() string
	// Kind is the application slot the stage fills; probes and reports
	// are keyed by it.
	Kind() JobKind
	// Run executes the stage against the run's artifact store.
	Run(rc *RunContext) error
}

// builtin is one of the four built-in stages. Everything that differs
// between them is declared once, in the stage's constructor: the
// options fingerprint and engine version the cache keys on, and the
// engine call that fills the kind's `makes` slots.
type builtin struct {
	kind JobKind
	// own is the StageConfig the stage was constructed with; its
	// non-zero fields win over the pipeline's.
	own     StageConfig
	optsFP  uint64
	version string
	run     func(rc *RunContext, sc StageConfig) (*perf.Report, error)
}

func (s builtin) Name() string               { return s.kind.String() }
func (s builtin) Kind() JobKind              { return s.kind }
func (s builtin) OptionsFingerprint() uint64 { return s.optsFP }
func (s builtin) EngineVersion() string      { return s.version }

func (s builtin) Run(rc *RunContext) error {
	if err := rc.require(s.kind); err != nil {
		return err
	}
	report, err := s.run(rc, rc.resolveConfig(s.kind, s.own))
	if err != nil {
		return err
	}
	rc.Reports[s.kind] = report
	return nil
}

// Synthesis returns the built-in synthesis stage. The passed options
// carry the stage-specific knobs (recipe, output registering, mapping
// objective); Workers and Probe are resolved from the pipeline unless
// set explicitly here.
func Synthesis(opts synth.Options) Stage {
	h := hash.New()
	h.Str(opts.Recipe.Name)
	h.Int(len(opts.Recipe.Passes))
	for _, p := range opts.Recipe.Passes {
		h.Int(int(p))
	}
	if opts.RegisterOutputs {
		h.Int(1)
	} else {
		h.Int(0)
	}
	h.Int(int(opts.Objective))
	return builtin{JobSynthesis, opts.StageConfig, uint64(h), "synth/1",
		func(rc *RunContext, sc StageConfig) (*perf.Report, error) {
			o := opts
			o.StageConfig = sc
			res, err := synth.Synthesize(rc.Design, rc.Lib, o)
			if err != nil {
				return nil, err
			}
			rc.Optimized, rc.Netlist = res.Optimized, res.Netlist
			return res.Report, nil
		}}
}

// Placement returns the built-in placement stage.
func Placement(opts place.Options) Stage {
	h := hash.New()
	// The five placer options every program left at 0: hashing those
	// zeros keeps the pinned chain keys.
	h.F64(0)
	h.F64(0)
	h.Int(0)
	h.Int(0)
	h.Int(0)
	return builtin{JobPlacement, opts.StageConfig, uint64(h), "place/1",
		func(rc *RunContext, sc StageConfig) (*perf.Report, error) {
			o := opts
			o.StageConfig = sc
			pl, report, err := place.Place(rc.Netlist, o)
			if err != nil {
				return nil, err
			}
			rc.Placement = pl
			return report, nil
		}}
}

// Routing returns the built-in global-routing stage.
func Routing(opts route.Options) Stage {
	h := hash.New()
	h.F64(opts.GCell)
	h.Int(opts.Capacity)
	h.Int(opts.MaxIters)
	h.Int(opts.TileSize)
	h.F64(0) // the history-cost option every program left at 0: keeps the pinned chain keys
	return builtin{JobRouting, opts.StageConfig, uint64(h), "route/1",
		func(rc *RunContext, sc StageConfig) (*perf.Report, error) {
			o := opts
			o.StageConfig = sc
			res, report, err := route.Route(rc.Netlist, rc.Placement, o)
			if err != nil {
				return nil, err
			}
			rc.Routing = res
			return report, nil
		}}
}

// STA returns the built-in static-timing stage. It accepts a missing
// placement (zero-wire-load timing), so a synthesis+sta pipeline is a
// valid partial flow.
func STA(opts sta.Options) Stage {
	h := hash.New()
	h.F64(opts.ClockPeriodNs)
	// The input-slew and wire-cap options every program left at 0:
	// hashing those zeros keeps the pinned chain keys.
	h.F64(0)
	h.F64(0)
	h.F64(opts.HoldTimeNs)
	return builtin{JobSTA, opts.StageConfig, uint64(h), "sta/1",
		func(rc *RunContext, sc StageConfig) (*perf.Report, error) {
			o := opts
			o.StageConfig = sc
			res, report, err := sta.Analyze(rc.Netlist, rc.Placement, o)
			if err != nil {
				return nil, err
			}
			rc.Timing = res
			return report, nil
		}}
}
