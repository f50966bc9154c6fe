package serve

import (
	"fmt"
	"math"
	"math/rand"
)

// TraceJob is one arrival of a synthetic workload trace.
type TraceJob struct {
	Name        string  `json:"name"`
	Tenant      string  `json:"tenant"`
	Template    string  `json:"template"`
	ArrivalSec  float64 `json:"arrival_sec"`
	DeadlineSec float64 `json:"deadline_sec,omitempty"`
}

// TraceConfig parameterizes the load generator.
type TraceConfig struct {
	// Seed fixes the generator: the same seed and parameters always
	// yield the same trace.
	Seed int64
	// Jobs is the trace length.
	Jobs int
	// RatePerSec is the mean arrival rate of the Poisson process.
	RatePerSec float64
	// Burstiness in [0,1) clusters arrivals: with probability b an
	// inter-arrival gap shrinks to a tenth, and the remaining gaps
	// stretch to keep the mean rate roughly honest. 0 is pure Poisson.
	Burstiness float64
	// SlackSec, when positive, stamps each job with a deadline between
	// 0.5x and 1.5x this much after its arrival. 0 leaves jobs
	// deadline-free.
	SlackSec float64
	// Tenants and Templates are drawn uniformly per job.
	Tenants   []string
	Templates []string
}

// MaxTraceJobs bounds a trace's length. TraceGen builds the whole
// trace up front and the count comes from a command line, so an
// unbounded one would exhaust memory before the first arrival is drawn.
const MaxTraceJobs = 1 << 20

// Check refuses a trace shape TraceGen cannot draw: a job count outside
// [1, MaxTraceJobs], an arrival rate that is not positive and finite,
// or a burstiness that is not finite or lies outside [0,1). It reads
// neither tenants nor templates, so a command can check its flags
// before it builds them.
func (cfg TraceConfig) Check() error {
	switch {
	case cfg.Jobs <= 0:
		return fmt.Errorf("serve: trace needs a positive job count, got %d", cfg.Jobs)
	case cfg.Jobs > MaxTraceJobs:
		return fmt.Errorf("serve: trace of %d jobs exceeds serve.MaxTraceJobs (%d)", cfg.Jobs, MaxTraceJobs)
	case math.IsNaN(cfg.RatePerSec) || math.IsInf(cfg.RatePerSec, 0):
		return fmt.Errorf("serve: trace arrival rate %g is not finite", cfg.RatePerSec)
	case cfg.RatePerSec <= 0:
		return fmt.Errorf("serve: trace needs a positive arrival rate, got %g", cfg.RatePerSec)
	case math.IsNaN(cfg.Burstiness) || math.IsInf(cfg.Burstiness, 0):
		return fmt.Errorf("serve: burstiness %g is not finite", cfg.Burstiness)
	case cfg.Burstiness < 0 || cfg.Burstiness >= 1:
		return fmt.Errorf("serve: burstiness %g outside [0,1)", cfg.Burstiness)
	}
	return nil
}

// TraceGen generates a seeded Poisson (or bursty) arrival trace over
// the given tenants and templates. Arrivals are rounded to the
// millisecond and strictly ordered. A trace whose arrivals or
// deadlines would reach 2^53 s, which the engine refuses, is an error.
func TraceGen(cfg TraceConfig) ([]TraceJob, error) {
	if err := cfg.Check(); err != nil {
		return nil, err
	}
	if len(cfg.Tenants) == 0 || len(cfg.Templates) == 0 {
		return nil, fmt.Errorf("serve: trace needs tenants and templates to draw from")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	jobs := make([]TraceJob, cfg.Jobs)
	t := 0.0
	for i := range jobs {
		dt := rng.ExpFloat64() / cfg.RatePerSec
		if cfg.Burstiness > 0 {
			if rng.Float64() < cfg.Burstiness {
				dt *= 0.1
			} else {
				dt *= 1 + cfg.Burstiness
			}
		}
		t += dt
		arrival := math.Round(t*1000) / 1000
		// Keep arrivals strictly increasing after the rounding.
		if i > 0 && arrival <= jobs[i-1].ArrivalSec {
			arrival = jobs[i-1].ArrivalSec + 0.001
		}
		j := TraceJob{
			Name:       fmt.Sprintf("job-%04d", i),
			Tenant:     cfg.Tenants[rng.Intn(len(cfg.Tenants))],
			Template:   cfg.Templates[rng.Intn(len(cfg.Templates))],
			ArrivalSec: arrival,
		}
		if cfg.SlackSec > 0 {
			j.DeadlineSec = arrival + math.Ceil(cfg.SlackSec*(0.5+float64(rng.Float64())))
		}
		if last := math.Max(arrival, j.DeadlineSec); !(last < maxClockSec) {
			return nil, fmt.Errorf("serve: trace job %q reaches %g s, past the engine's 2^53 s clock", j.Name, last)
		}
		jobs[i] = j
	}
	return jobs, nil
}
