package flow

import (
	"context"
	"fmt"

	"edacloud/internal/aig"
	"edacloud/internal/cache"
	"edacloud/internal/perf"
	"edacloud/internal/place"
	"edacloud/internal/route"
	"edacloud/internal/sta"
	"edacloud/internal/synth"
	"edacloud/internal/techlib"
)

// EventType distinguishes pipeline progress events.
type EventType int

// The pipeline event types.
const (
	// StageStarted fires immediately before a stage runs.
	StageStarted EventType = iota
	// StageFinished fires after a stage returns, with its error if any.
	StageFinished
)

// Event is one streamed progress notification. Events are emitted
// synchronously on the goroutine running the pipeline; a pipeline run
// inside a Scheduler therefore delivers them concurrently with other
// jobs' events, and shared callbacks must be safe for that.
type Event struct {
	Type  EventType
	Stage string
	Kind  JobKind
	// Index/Total locate the stage in the pipeline (0-based).
	Index, Total int
	// Err is the stage error on StageFinished; nil on success.
	Err error
}

type config struct {
	ctx             context.Context
	recipe          synth.Recipe
	registerOutputs bool
	clockPeriodNs   float64
	workers         int
	newProbe        func(JobKind) *perf.Probe
	events          func(Event)
	stages          []Stage
	cache           *cache.Store
}

// Option configures a Pipeline at construction time.
type Option func(*config)

// WithContext sets the run's cancellation context; the pipeline checks
// it before each stage. Default context.Background().
func WithContext(ctx context.Context) Option {
	return func(c *config) { c.ctx = ctx }
}

// WithRecipe sets the synthesis recipe of the default flow's synthesis
// stage; the zero recipe means raw mapping.
func WithRecipe(r synth.Recipe) Option {
	return func(c *config) { c.recipe = r }
}

// WithRegisterOutputs makes the default synthesis stage insert a DFF
// behind every primary output.
func WithRegisterOutputs(v bool) Option {
	return func(c *config) { c.registerOutputs = v }
}

// WithClockPeriodNs sets the default sta stage's timing constraint;
// 0 means the engine default (1.0 ns).
func WithClockPeriodNs(ns float64) Option {
	return func(c *config) { c.clockPeriodNs = ns }
}

// WithWorkers bounds every stage's worker pool; 0 means GOMAXPROCS.
// Results are identical for every value. The router is serial, so the
// bound leaves routing unchanged.
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// WithNewProbe installs the per-stage instrumentation factory: each
// stage run gets a fresh probe from it, mirroring the paper's setup of
// one profiled process per application. nil (the default) runs the
// flow uninstrumented.
func WithNewProbe(fn func(JobKind) *perf.Probe) Option {
	return func(c *config) { c.newProbe = fn }
}

// WithEvents streams progress events to fn as the pipeline runs.
func WithEvents(fn func(Event)) Option {
	return func(c *config) { c.events = fn }
}

// WithStages replaces the default four-stage flow with an explicit
// stage list — the partial-flow and custom-stage hook (e.g.
// synthesis-only for dataset generation). Stage-specific options (WithRecipe, WithClockPeriodNs,
// ...) only shape the default stages and are ignored when this option
// is present; configure the passed stages directly instead.
func WithStages(stages ...Stage) Option {
	return func(c *config) { c.stages = stages }
}

// Pipeline is an immutable, reusable sequence of stages. A Pipeline is
// safe for concurrent Run calls: each run gets its own RunContext and
// built-in stages keep no mutable state.
type Pipeline struct {
	stages []Stage
	cfg    config
}

// NewPipeline builds a pipeline. With no WithStages option the
// pipeline is the paper's full flow — synthesis, placement, routing,
// sta — shaped by the stage-specific options.
func NewPipeline(opts ...Option) *Pipeline {
	cfg := config{ctx: context.Background()}
	for _, o := range opts {
		o(&cfg)
	}
	stages := cfg.stages
	if stages == nil {
		stages = []Stage{
			Synthesis(synth.Options{
				Recipe:          cfg.recipe,
				RegisterOutputs: cfg.registerOutputs,
			}),
			Placement(place.Options{}),
			Routing(route.Options{}),
			STA(sta.Options{ClockPeriodNs: cfg.clockPeriodNs}),
		}
	} else {
		stages = append([]Stage(nil), stages...)
	}
	return &Pipeline{stages: stages, cfg: cfg}
}

// Stages returns the pipeline's stage sequence.
func (p *Pipeline) Stages() []Stage { return append([]Stage(nil), p.stages...) }

// newRunContext prepares a fresh artifact store bound to this
// pipeline's configuration, without running anything.
func (p *Pipeline) newRunContext(g *aig.Graph, lib *techlib.Library) *RunContext {
	return &RunContext{
		Ctx:     p.cfg.ctx,
		Design:  g,
		Lib:     lib,
		Reports: map[JobKind]*perf.Report{},
		cfg:     &p.cfg,
	}
}

// Run executes the pipeline's stages in order on a design, checking
// the context for cancellation at every stage boundary, and returns
// the RunContext holding every artifact produced. Inside a Scheduler
// with a Cache, each cacheable stage is first looked up by its chain
// key and a verified hit adopts the stored artifacts instead of
// running the engine. On error the context is returned too, with the
// artifacts of the stages that completed.
func (p *Pipeline) Run(g *aig.Graph, lib *techlib.Library) (*RunContext, error) {
	rc := p.newRunContext(g, lib)
	return rc, p.run(rc)
}

// run is the pipeline's one stage loop.
func (p *Pipeline) run(rc *RunContext) error {
	total := len(p.stages)
	var chain cache.Key
	for i, s := range p.stages {
		var key cache.Key
		if p.cfg.cache != nil {
			key = p.stageKey(rc, s, chain)
			chain = key
		}
		if err := rc.Ctx.Err(); err != nil {
			return fmt.Errorf("flow: %s: %w", s.Name(), err)
		}
		var collision bool
		if key != 0 {
			var adopted bool
			adopted, collision = p.tryAdopt(rc, s, key, i, total)
			if adopted {
				continue
			}
		}
		p.emit(Event{Type: StageStarted, Stage: s.Name(), Kind: s.Kind(), Index: i, Total: total})
		err := s.Run(rc)
		p.emit(Event{Type: StageFinished, Stage: s.Name(), Kind: s.Kind(), Index: i, Total: total, Err: err})
		if err != nil {
			return fmt.Errorf("flow: %s: %w", s.Name(), err)
		}
		if key != 0 && !collision {
			p.recordComputed(rc, s, key)
		}
	}
	return nil
}

func (p *Pipeline) emit(e Event) {
	if p.cfg.events != nil {
		p.cfg.events(e)
	}
}
