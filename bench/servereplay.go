package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"edacloud/internal/cloud"
	"edacloud/internal/core"
	"edacloud/internal/flow"
	"edacloud/internal/mckp"
	"edacloud/internal/serve"
	"edacloud/internal/techlib"
)

// The serving fleet, tenants and designs are cmd/edad's defaults, with
// a third tenant and a third template so that quotas and the joint
// re-plan have more than two parties.
const serveFleetSpec = "gp.1x=1,gp.2x=1,gp.4x=1,gp.8x=1,mem.1x=1,mem.2x=1,mem.4x=1,mem.8x=1"

var (
	serveTenants = []serve.Tenant{{Name: "acme", Weight: 3}, {Name: "blue", Weight: 2}, {Name: "coral", Weight: 1}}
	serveDesigns = []string{"ibex", "aes", "jpeg"}
	// Simulated arrival rates in jobs/s: the fleet rejects roughly 15 %,
	// 34 % and 62 % of the jobs at these.
	serveRates = []float64{0.01, 0.02, 0.05}
	// Every rate is replayed under each of these generator seeds. They
	// are part of the workload and not drawn from -seed: the share of
	// rejected jobs, and with it the cost of a decision, moves by several
	// percent with the trace, which would read as noise between runs.
	serveTraceSeeds = []int64{1, 2}
)

const (
	serveBurstiness = 0.4
	// serveSlack sets deadlines, as a multiple of the slowest template's
	// slowest plan.
	serveSlack = 4
	// A status read follows every statusEvery-th submit.
	statusEvery = 4
	// probeJobs is the size of the planner probe's active set.
	probeJobs = 24
)

// serveState is what the replays of one set-up share.
type serveState struct {
	catalog   *cloud.Catalog
	templates []serve.Template
	// directLat and httpLat collect the submit latencies of the direct
	// and the HTTP replays, for the HTTP overhead.
	directLat, httpLat []time.Duration
}

func (s *serveState) config() (serve.Config, error) {
	fleet, err := cloud.ParseFleetSpec(s.catalog, serveFleetSpec)
	if err != nil {
		return serve.Config{}, err
	}
	return serve.Config{Fleet: fleet, Tenants: serveTenants, Templates: s.templates}, nil
}

// serveTrace is one arrival trace with its request bodies encoded.
type serveTrace struct {
	jobs   []serve.TraceJob
	bodies [][]byte
	// want is the report of a direct replay, which the oracle fills in.
	want string
}

// buildTemplates characterizes each design into a serving template the
// way cmd/edad does, keeping the machine choices the fleet offers. It
// also returns the slowest template's slowest plan in seconds.
func buildTemplates(tr *tracer, catalog *cloud.Catalog, fleet *cloud.Fleet, scale float64) ([]serve.Template, int, error) {
	lib := techlib.Default14nm()
	var out []serve.Template
	worst := 0
	for _, d := range serveDesigns {
		sp := tr.start("core.characterize")
		char, err := core.CharacterizeEval(lib, d, core.CharacterizeOptions{Scale: scale})
		tr.end(sp)
		if err != nil {
			return nil, 0, err
		}
		sp = tr.start("core.build_problem")
		prob, err := core.BuildDeploymentProblem(char, catalog)
		if err == nil {
			prob, err = prob.Restrict(fleet)
		}
		tr.end(sp)
		if err != nil {
			return nil, 0, err
		}
		total := 0
		for _, cl := range prob.Classes {
			slowest := 0
			for _, it := range cl.Items {
				slowest = max(slowest, it.TimeSec)
			}
			total += slowest
		}
		worst = max(worst, total)
		out = append(out, serve.Template{Name: d, Kinds: core.JobKinds(), Classes: prob.Classes})
	}
	return out, worst, nil
}

// setupServeReplay builds the edad daemon's state in process and six
// arrival traces: three rates under two generator seeds each.
func setupServeReplay(c config, tr *tracer) (*plan, error) {
	st := &serveState{catalog: cloud.DefaultCatalog()}
	fleet, err := cloud.ParseFleetSpec(st.catalog, serveFleetSpec)
	if err != nil {
		return nil, err
	}
	var worst int
	if st.templates, worst, err = buildTemplates(tr, st.catalog, fleet, c.size.templateScale); err != nil {
		return nil, err
	}
	var tenants []string
	for _, t := range serveTenants {
		tenants = append(tenants, t.Name)
	}
	p := &plan{}
	var traces []*serveTrace
	for _, rate := range serveRates {
		for _, traceSeed := range serveTraceSeeds {
			sp := tr.start("serve.trace_gen")
			jobs, err := serve.TraceGen(serve.TraceConfig{
				Seed: traceSeed, Jobs: c.size.traceJobs, RatePerSec: rate, Burstiness: serveBurstiness,
				SlackSec: serveSlack * float64(worst), Tenants: tenants, Templates: serveDesigns,
			})
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			t := &serveTrace{jobs: jobs}
			for _, j := range jobs {
				body, err := json.Marshal(j)
				if err != nil {
					return nil, err
				}
				t.bodies = append(t.bodies, body)
			}
			traces = append(traces, t)
			p.round = append(p.round, item{name: fmt.Sprintf("rate%g/seed%d", rate, traceSeed), run: func(tr *tracer) opResult {
				return st.replay(tr, t)
			}})
		}
	}
	// The oracle replays every trace through the engine with no HTTP.
	p.oracle = func(tr *tracer) error {
		for _, t := range traces {
			sp := tr.start("serve.replay_direct")
			want, err := st.replayDirect(t.jobs)
			tr.end(sp)
			if err != nil {
				return err
			}
			t.want = want
		}
		return nil
	}
	p.finish = func(tr *tracer) (map[string]float64, error) {
		overheadMs := durationPercentile(st.httpLat, 50) - durationPercentile(st.directLat, 50)
		return map[string]float64{"serve.http_overhead_us": overheadMs * 1e3}, st.plannerProbe(tr, c.size.probeCalls)
	}
	return p, nil
}

// request sends one request through the handler, in a span when traced.
func request(tr *tracer, h http.Handler, name, method, path string, body []byte) *httptest.ResponseRecorder {
	sp := tr.start(name)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	tr.end(sp)
	return rec
}

// replay is the timed serve-replay op: a fresh server, every arrival
// submitted over HTTP with status reads beside, then drain and report.
func (s *serveState) replay(tr *tracer, t *serveTrace) opResult {
	res := opResult{lat: make([]time.Duration, 0, len(t.jobs))}
	var report serve.Report
	var err error
	timeOp(&res, tr, func() {
		var cfg serve.Config
		if cfg, err = s.config(); err != nil {
			return
		}
		sp := tr.start("serve.new_server")
		srv, e := serve.NewServer(cfg)
		tr.end(sp)
		if err = e; err != nil {
			return
		}
		h := srv.Handler()
		expect := func(rec *httptest.ResponseRecorder, codes ...int) {
			res.attempted++
			for _, code := range codes {
				if rec.Code == code {
					return
				}
			}
			res.failed++
		}
		for i, body := range t.bodies {
			start := time.Now()
			rec := request(tr, h, "serve.http.submit", http.MethodPost, "/v1/jobs", body)
			res.lat = append(res.lat, time.Since(start))
			expect(rec, http.StatusCreated, http.StatusConflict)
			if i%statusEvery == statusEvery-1 {
				expect(request(tr, h, "serve.http.status", http.MethodGet, "/v1/jobs/"+strconv.Itoa(i), nil), http.StatusOK)
			}
		}
		expect(request(tr, h, "serve.http.drain", http.MethodPost, "/v1/advance", []byte(`{"drain":true}`)), http.StatusOK)
		rec := request(tr, h, "serve.http.report", http.MethodGet, "/v1/report", nil)
		expect(rec, http.StatusOK)
		err = json.Unmarshal(rec.Body.Bytes(), &report)
	})
	s.httpLat = append(s.httpLat, res.lat...)
	if err != nil {
		res.fail("replay", err)
		return res
	}
	res.units = float64(len(t.jobs))

	res.checkf(report.String() == t.want, "report differs from the direct replay's")
	res.checkf(report.MissedDeadlines == 0 && report.MissedPromises == 0,
		"%d missed deadlines, %d missed promises", report.MissedDeadlines, report.MissedPromises)
	res.checkf(report.Admitted+report.Rejected == len(t.jobs),
		"admitted %d + rejected %d is not the %d submitted", report.Admitted, report.Rejected, len(t.jobs))

	res.counters = map[string]float64{
		"serve.submits":         float64(len(t.jobs)),
		"serve.admitted":        float64(report.Admitted),
		"serve.rejected":        float64(report.Rejected),
		"serve.replans":         float64(report.Replans),
		"serve.adopted":         float64(report.Adopted),
		"serve.released_leases": float64(report.ReleasedLeases),
		"serve.sim_cost_usd":    report.TotalCostUSD,
	}
	res.digest = digestOf("%s", report.String())
	return res
}

// replayDirect is serve.Replay with every Submit timed.
func (s *serveState) replayDirect(jobs []serve.TraceJob) (string, error) {
	cfg, err := s.config()
	if err != nil {
		return "", err
	}
	eng, err := serve.New(cfg)
	if err != nil {
		return "", err
	}
	for _, j := range jobs {
		start := time.Now()
		_, err := eng.Submit(serve.SubmitRequest{
			Tenant: j.Tenant, Template: j.Template, Name: j.Name,
			ArrivalSec: j.ArrivalSec, DeadlineSec: j.DeadlineSec,
		})
		s.directLat = append(s.directLat, time.Since(start))
		if err != nil {
			return "", err
		}
	}
	eng.Drain()
	return eng.Report().String(), nil
}

// plannerProbe times, from outside, the three things a re-plan is made
// of: the joint solve (cold, and warm from the cold solve's prices),
// the forecast replay of its picks, and the fleet snapshot with the
// release of its uncommitted tail.
func (s *serveState) plannerProbe(tr *tracer, calls int) error {
	fleet, err := cloud.ParseFleetSpec(s.catalog, serveFleetSpec)
	if err != nil {
		return err
	}
	capacity := mckp.Capacity(fleet.Types())
	jobs := make([]mckp.BatchJob, probeJobs)
	for i := range jobs {
		tpl := s.templates[i%len(s.templates)]
		ready := 30 * i
		jobs[i] = mckp.BatchJob{
			Name:        "probe" + strconv.Itoa(i),
			Classes:     tpl.Classes,
			ReadySec:    ready,
			DeadlineSec: ready + serveSlack*mckp.MinTotalTime(tpl.Classes),
		}
	}
	var cold mckp.BatchSelection
	for n := 0; n < calls; n++ {
		sp := tr.start("mckp.batch_optimize")
		cold, err = mckp.BatchOptimize(jobs, capacity)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	if !cold.Feasible {
		return fmt.Errorf("the probe's active set has no feasible joint plan")
	}
	for n := 0; n < calls; n++ {
		sp := tr.start("mckp.batch_optimize_state")
		_, err = mckp.BatchOptimizeState(jobs, capacity, mckp.BatchState{Prices: cold.FinalPrices, Rounds: 2})
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	fjobs := make([]flow.ForecastJob, len(jobs))
	for i, job := range jobs {
		tpl := s.templates[i%len(s.templates)]
		fj := flow.ForecastJob{Name: job.Name, ReadySec: float64(job.ReadySec), DeadlineSec: float64(job.DeadlineSec)}
		for l, pick := range cold.Jobs[i].Pick {
			it := job.Classes[l].Items[pick]
			typ, ok := fleet.TypeByName(it.Label)
			if !ok {
				return fmt.Errorf("plan names instance type %q absent from the fleet", it.Label)
			}
			fj.Stages = append(fj.Stages, flow.ForecastStage{Kind: tpl.Kinds[l], Type: typ, Seconds: float64(it.TimeSec)})
		}
		fjobs[i] = fj
	}
	var booked *cloud.Fleet
	for n := 0; n < calls; n++ {
		booked = fleet.Clone()
		sp := tr.start("flow.forecast")
		_, err = flow.Forecast(booked, fjobs)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	// Half the probe's jobs have arrived by then, so the release has both
	// leases to keep and leases to drop.
	at := float64(jobs[probeJobs/2].ReadySec)
	for n := 0; n < calls; n++ {
		sp := tr.start("cloud.fleet_snapshot_release")
		released := booked.Snapshot().ReleaseFrom(at)
		tr.end(sp)
		if released == 0 {
			return fmt.Errorf("the probe's release dropped no lease")
		}
	}
	return nil
}
