package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// Server wraps an Engine behind an HTTP/JSON API. The engine runs in
// simulated time: submissions carry their arrival times and the
// /v1/advance endpoint moves the clock, so a driver (or the replay
// CLI) fully controls when completions and re-plans happen. One mutex
// serializes every request — the engine itself is single-threaded by
// design, which is what makes its decisions reproducible. A handler
// encodes a job's status while it holds the mutex, so it sends the
// engine's own status rather than a snapshot.
type Server struct {
	mu  sync.Mutex
	eng *Engine
	// events[id] is job id's event log.
	events [][]Event
}

// NewServer builds a server over the config. The config's OnEvent (if
// any) still fires; the server additionally records every event for
// the per-job events endpoint.
func NewServer(cfg Config) (*Server, error) {
	s := &Server{}
	inner := cfg.OnEvent
	cfg.OnEvent = func(ev Event) {
		for len(s.events) <= ev.JobID {
			s.events = append(s.events, nil)
		}
		if s.events[ev.JobID] == nil {
			// A stage starts and finishes once.
			s.events[ev.JobID] = make([]Event, 0, 2*ev.Flow.Total)
		}
		s.events[ev.JobID] = append(s.events[ev.JobID], ev)
		if inner != nil {
			inner(ev)
		}
	}
	eng, err := New(cfg)
	if err != nil {
		return nil, err
	}
	s.eng = eng
	return s, nil
}

// Engine exposes the wrapped engine for in-process drivers.
// jsonBuf is one response's encoding storage: an encoder and the
// buffer it writes into, reused from response to response.
type jsonBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// jsonBufs holds encoders for reuse by any request. It is a bounded
// channel rather than a sync.Pool because a garbage collection empties
// a pool, and a busy server collects every few milliseconds. Every
// answer but a refused body is encoded under the server's mutex, so a
// few encoders serve all the requests in flight; eight bounds what the
// largest responses keep pinned.
var jsonBufs = make(chan *jsonBuf, 8)

// writeJSON sends v as compact JSON and a newline, with the status
// code, in one write. An encoding error sends the status with an empty
// body; a write error means the client has gone, and the status is
// already sent.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var b *jsonBuf
	select {
	case b = <-jsonBufs:
		b.buf.Reset()
	default:
		b = &jsonBuf{}
		b.enc = json.NewEncoder(&b.buf)
	}
	defer func() {
		select {
		case jsonBufs <- b:
		default:
		}
	}()
	_ = b.enc.Encode(v)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(b.buf.Bytes())
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) jobID(r *http.Request) (int, error) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		return 0, fmt.Errorf("serve: bad job id %q", r.PathValue("id"))
	}
	return id, nil
}

// Handler returns the API mux:
//
//	POST /v1/jobs               submit a job (SubmitRequest JSON)
//	GET  /v1/jobs               all job statuses
//	GET  /v1/jobs/{id}          one job's status
//	POST /v1/jobs/{id}/cancel   cancel ({"at_sec": t}; default now)
//	GET  /v1/jobs/{id}/events   the job's progress events so far
//	POST /v1/advance            move the clock ({"to_sec": t} or {"drain": true})
//	GET  /v1/tenants            per-tenant ledgers
//	GET  /v1/report             full summary report
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Tenant      string  `json:"tenant"`
			Template    string  `json:"template"`
			Name        string  `json:"name"`
			ArrivalSec  float64 `json:"arrival_sec"`
			DeadlineSec float64 `json:"deadline_sec"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		job, err := s.eng.submit(SubmitRequest{
			Tenant: req.Tenant, Template: req.Template, Name: req.Name,
			ArrivalSec: req.ArrivalSec, DeadlineSec: req.DeadlineSec,
		})
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		code := http.StatusCreated
		if job.status.Status == StatusRejected {
			code = http.StatusConflict
		}
		writeJSON(w, code, &job.status)
	})

	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		defer s.mu.Unlock()
		writeJSON(w, http.StatusOK, s.eng.Jobs())
	})

	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, err := s.jobID(r)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		job, err := s.eng.job(id)
		if err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, &job.status)
	})

	mux.HandleFunc("POST /v1/jobs/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		id, err := s.jobID(r)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		var req struct {
			AtSec float64 `json:"at_sec"`
		}
		if r.ContentLength != 0 {
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				writeErr(w, http.StatusBadRequest, err)
				return
			}
		}
		if err := checkTime("cancel at_sec", req.AtSec); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("serve: %w", err))
			return
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		at := req.AtSec
		if at < s.eng.Now() {
			at = s.eng.Now()
		}
		if err := s.eng.Cancel(id, at); err != nil {
			writeErr(w, http.StatusConflict, err)
			return
		}
		job, _ := s.eng.job(id)
		writeJSON(w, http.StatusOK, &job.status)
	})

	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		id, err := s.jobID(r)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, err := s.eng.job(id); err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		var evs []Event
		if id < len(s.events) {
			evs = s.events[id]
		}
		if evs == nil {
			evs = []Event{}
		}
		writeJSON(w, http.StatusOK, evs)
	})

	mux.HandleFunc("POST /v1/advance", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			ToSec float64 `json:"to_sec"`
			Drain bool    `json:"drain"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		to := req.ToSec
		if req.Drain {
			to = math.Inf(1)
		} else if err := checkTime("advance to_sec", to); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("serve: %w", err))
			return
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if to < s.eng.Now() {
			writeErr(w, http.StatusBadRequest,
				fmt.Errorf("serve: cannot advance to %g, clock is at %g", to, s.eng.Now()))
			return
		}
		s.eng.AdvanceTo(to)
		writeJSON(w, http.StatusOK, map[string]float64{"now_sec": s.eng.Now()})
	})

	mux.HandleFunc("GET /v1/tenants", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		defer s.mu.Unlock()
		writeJSON(w, http.StatusOK, s.eng.TenantStats())
	})

	mux.HandleFunc("GET /v1/report", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		defer s.mu.Unlock()
		writeJSON(w, http.StatusOK, s.eng.Report())
	})

	return mux
}
