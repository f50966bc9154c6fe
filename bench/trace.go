package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's side of the call into that layer.
type span struct {
	ID int `json:"id"`
	// Parent is the enclosing span's ID, -1 for a span opened directly
	// by the benchmark.
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	// Workload and Round say what the span was recorded for; Round is -1
	// outside the rounds, in set-up, the oracle and the planner probe.
	Workload string `json:"workload"`
	Round    int    `json:"round"`
	// Op groups the spans of one timed op with its checks (or of one
	// set-up, oracle or probe): they share its number.
	Op      int   `json:"op"`
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Every span is opened
// and closed on the driver goroutine (pipeline events are delivered
// synchronously on it), so a stack is enough to find each span's
// parent. A nil tracer records nothing: that is the untraced run.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	// workload, round and op stamp the spans opened from now on.
	workload string
	round    int
	op       int
	// rootNs sums the durations of closed parentless spans; its change
	// across a timed op is the part of the op that spans cover.
	rootNs int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// scope sets the workload and round of the spans opened from now on.
func (t *tracer) scope(workload string, round int) {
	if t != nil {
		t.workload, t.round = workload, round
	}
}

// nextOp starts a new span group.
func (t *tracer) nextOp() {
	if t != nil {
		t.op++
	}
}

// start opens a span under the innermost open one and returns its ID.
func (t *tracer) start(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, Round: t.round, Op: t.op})
	t.stack = append(t.stack, id)
	t.spans[id].StartNs = int64(time.Since(t.t0))
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	n := len(t.stack)
	if n == 0 || t.stack[n-1] != id {
		panic(fmt.Sprintf("bench: span %d closed out of order", id))
	}
	t.stack = t.stack[:n-1]
	s := &t.spans[id]
	s.EndNs = now
	if s.Parent < 0 {
		t.rootNs += s.EndNs - s.StartNs
	}
}

// covered returns the total duration of closed parentless spans so far.
func (t *tracer) covered() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.rootNs)
}

// spanTotals is one span name's count and self time: its durations
// minus the parts its child spans cover.
type spanTotals struct {
	N     float64
	SelfS float64
}

// summarize folds one workload's spans into per-name totals, those of
// the rounds and those recorded outside them.
func summarize(spans []span, workload string) (inRounds, outside map[string]spanTotals) {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	inRounds, outside = map[string]spanTotals{}, map[string]spanTotals{}
	for _, s := range spans {
		if s.Workload != workload {
			continue
		}
		into := inRounds
		if s.Round < 0 {
			into = outside
		}
		t := into[s.Name]
		t.N++
		t.SelfS += float64(s.EndNs-s.StartNs-child[s.ID]) / 1e9
		into[s.Name] = t
	}
	return inRounds, outside
}

// checkSpans verifies the trace's shape: every span closed, every child
// inside its parent, and the children of one parent summing to no more
// than it.
func checkSpans(spans []span) error {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.EndNs < s.StartNs {
			return fmt.Errorf("span %d (%s) never closed", s.ID, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		if s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			return fmt.Errorf("span %d (%s) lies outside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
		child[s.Parent] += s.EndNs - s.StartNs
	}
	for _, s := range spans {
		if child[s.ID] > s.EndNs-s.StartNs {
			return fmt.Errorf("children of span %d (%s) sum to more than it", s.ID, s.Name)
		}
	}
	return nil
}

// The runtime/metrics the meter reads. None of them stops the world,
// unlike runtime.ReadMemStats.
const (
	metricAllocBytes = "/gc/heap/allocs:bytes"
	metricGCCycles   = "/gc/cycles/total:gc-cycles"
	metricGCPauseCPU = "/cpu/classes/gc/pause:cpu-seconds"
	metricHeapLive   = "/memory/classes/heap/objects:bytes"
)

// usage is the host cost of one timed interval.
type usage struct {
	wall, cpu time.Duration
	alloc     uint64
	gcCycles  uint64
	gcPause   time.Duration
}

func (u *usage) add(o usage) {
	u.wall += o.wall
	u.cpu += o.cpu
	u.alloc += o.alloc
	u.gcCycles += o.gcCycles
	u.gcPause += o.gcPause
}

// meter measures one timed interval: wall clock, process CPU time,
// bytes allocated and garbage-collector work.
type meter struct {
	samples [3]metrics.Sample
	cpu     time.Duration
	t0      time.Time
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func startMeter() *meter {
	m := &meter{}
	m.samples[0].Name = metricAllocBytes
	m.samples[1].Name = metricGCCycles
	m.samples[2].Name = metricGCPauseCPU
	metrics.Read(m.samples[:])
	m.cpu = processCPU()
	m.t0 = time.Now()
	return m
}

func (m *meter) stop() usage {
	wall := time.Since(m.t0)
	cpu := processCPU() - m.cpu
	before := m.samples
	metrics.Read(m.samples[:])
	// The runtime charges a pause to every processor, so the wall-clock
	// pause is the CPU figure divided by their number.
	pauseCPU := m.samples[2].Value.Float64() - before[2].Value.Float64()
	return usage{
		wall:     wall,
		cpu:      cpu,
		alloc:    m.samples[0].Value.Uint64() - before[0].Value.Uint64(),
		gcCycles: m.samples[1].Value.Uint64() - before[1].Value.Uint64(),
		gcPause:  time.Duration(pauseCPU / float64(runtime.GOMAXPROCS(0)) * 1e9),
	}
}

// heapSampler tracks the peak of live heap bytes on a 10 ms ticker.
type heapSampler struct {
	stopCh chan struct{}
	wg     sync.WaitGroup
	peak   uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopCh: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sample := []metrics.Sample{{Name: metricHeapLive}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stopCh:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends the sampler and returns the peak it saw.
func (h *heapSampler) stop() uint64 {
	close(h.stopCh)
	h.wg.Wait()
	return h.peak
}
