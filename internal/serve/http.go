package serve

import (
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
// design, which is what makes its decisions reproducible.
type Server struct {
	mu     sync.Mutex
	eng    *Engine
	events map[int][]Event
}

// NewServer builds a server over the config. The config's OnEvent (if
// any) still fires; the server additionally records every event for
// the per-job events endpoint.
func NewServer(cfg Config) (*Server, error) {
	s := &Server{events: map[int][]Event{}}
	inner := cfg.OnEvent
	cfg.OnEvent = func(ev Event) {
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
func (s *Server) Engine() *Engine { return s.eng }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
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
		st, err := s.eng.Submit(SubmitRequest{
			Tenant: req.Tenant, Template: req.Template, Name: req.Name,
			ArrivalSec: req.ArrivalSec, DeadlineSec: req.DeadlineSec,
		})
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		code := http.StatusCreated
		if st.Status == StatusRejected {
			code = http.StatusConflict
		}
		writeJSON(w, code, st)
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
		st, err := s.eng.Status(id)
		if err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
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
		st, _ := s.eng.Status(id)
		writeJSON(w, http.StatusOK, st)
	})

	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		id, err := s.jobID(r)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, err := s.eng.Status(id); err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		evs := s.events[id]
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
