package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func doJSON(t *testing.T, srv *httptest.Server, method, path string, body any, status int, out any) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, srv.URL+path, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != status {
		var e map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("%s %s: status %d, want %d (%v)", method, path, resp.StatusCode, status, e)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFarDeadlineSubmit: a client deadline far past any plan (1e12 s)
// is admitted, a second job re-plans alongside it, and the report
// answers — all in well under a second, because the per-job solve does
// not grow with the deadline.
func TestFarDeadlineSubmit(t *testing.T) {
	s, err := NewServer(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	start := time.Now()
	var far, next JobStatus
	doJSON(t, srv, "POST", "/v1/jobs", map[string]any{
		"tenant": "alpha", "template": "small", "name": "far", "arrival_sec": 0, "deadline_sec": 1e12,
	}, http.StatusCreated, &far)
	doJSON(t, srv, "POST", "/v1/jobs", map[string]any{
		"tenant": "beta", "template": "big", "name": "next", "arrival_sec": 1, "deadline_sec": 4000,
	}, http.StatusCreated, &next)
	var rep Report
	doJSON(t, srv, "GET", "/v1/report", nil, http.StatusOK, &rep)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("far-deadline submit and report took %v", elapsed)
	}
	if far.Status != StatusAdmitted || far.PromisedSec <= 0 || len(far.Stages) == 0 {
		t.Fatalf("far-deadline job: %+v", far)
	}
	if rep.Jobs != 2 || rep.Rejected != 0 {
		t.Fatalf("report: %s", &rep)
	}
}

// TestServerLifecycle drives the full API over httptest: submit,
// reject, advance the virtual clock, stream progress, cancel, and read
// the ledgers.
func TestServerLifecycle(t *testing.T) {
	s, err := NewServer(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var st JobStatus
	doJSON(t, srv, "POST", "/v1/jobs", map[string]any{
		"tenant": "alpha", "template": "small", "name": "one", "arrival_sec": 0, "deadline_sec": 2000,
	}, http.StatusCreated, &st)
	if st.Status != StatusAdmitted || st.ID != 0 || st.PromisedSec <= 0 {
		t.Fatalf("submit: %+v", st)
	}

	// An impossible deadline comes back 409 with the rejection reason.
	var rej JobStatus
	doJSON(t, srv, "POST", "/v1/jobs", map[string]any{
		"tenant": "beta", "template": "big", "name": "nope", "arrival_sec": 1, "deadline_sec": 5,
	}, http.StatusConflict, &rej)
	if rej.Status != StatusRejected || rej.Reason == "" {
		t.Fatalf("reject: %+v", rej)
	}

	// Bad requests refuse cleanly.
	doJSON(t, srv, "POST", "/v1/jobs", map[string]any{"tenant": "nobody", "template": "small"}, http.StatusBadRequest, nil)
	doJSON(t, srv, "GET", "/v1/jobs/99", nil, http.StatusNotFound, nil)
	doJSON(t, srv, "GET", "/v1/jobs/xx", nil, http.StatusBadRequest, nil)

	// Advance past the first stage: progress events appear.
	var clock map[string]float64
	doJSON(t, srv, "POST", "/v1/advance", map[string]any{"to_sec": st.Stages[0].EndSec + 1}, http.StatusOK, &clock)
	if clock["now_sec"] != st.Stages[0].EndSec+1 {
		t.Fatalf("clock: %v", clock)
	}
	var evs []Event
	doJSON(t, srv, "GET", "/v1/jobs/0/events", nil, http.StatusOK, &evs)
	if len(evs) < 2 {
		t.Fatalf("no progress after first stage: %+v", evs)
	}
	// The clock refuses to run backwards.
	doJSON(t, srv, "POST", "/v1/advance", map[string]any{"to_sec": 1}, http.StatusBadRequest, nil)

	// Submit and cancel a second job.
	var st2 JobStatus
	doJSON(t, srv, "POST", "/v1/jobs", map[string]any{
		"tenant": "beta", "template": "big", "name": "two", "arrival_sec": clock["now_sec"] + 1,
	}, http.StatusCreated, &st2)
	var canceled JobStatus
	doJSON(t, srv, "POST", fmt.Sprintf("/v1/jobs/%d/cancel", st2.ID), nil, http.StatusOK, &canceled)
	if canceled.Status != StatusCanceled {
		t.Fatalf("cancel: %+v", canceled)
	}
	doJSON(t, srv, "POST", fmt.Sprintf("/v1/jobs/%d/cancel", st2.ID), nil, http.StatusConflict, nil)

	// Drain and read the ledgers.
	doJSON(t, srv, "POST", "/v1/advance", map[string]any{"drain": true}, http.StatusOK, &clock)
	var all []JobStatus
	doJSON(t, srv, "GET", "/v1/jobs", nil, http.StatusOK, &all)
	if len(all) != 3 {
		t.Fatalf("want 3 jobs, got %d", len(all))
	}
	var got JobStatus
	doJSON(t, srv, "GET", "/v1/jobs/0", nil, http.StatusOK, &got)
	if got.Status != StatusDone || got.FinishSec > got.PromisedSec+1e-9 {
		t.Fatalf("job 0 after drain: %+v", got)
	}
	var stats []TenantStat
	doJSON(t, srv, "GET", "/v1/tenants", nil, http.StatusOK, &stats)
	if len(stats) != 2 || stats[0].Name != "alpha" || stats[0].Done != 1 {
		t.Fatalf("tenants: %+v", stats)
	}
	var rep Report
	doJSON(t, srv, "GET", "/v1/report", nil, http.StatusOK, &rep)
	if rep.Jobs != 3 || rep.Completed != 1 || rep.Rejected != 1 || rep.Canceled != 1 || rep.MissedPromises != 0 {
		t.Fatalf("report: %s", &rep)
	}
}

// send drives one request through the handler in process.
func send(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// TestOutOfRangeTimesRefused: a time at or above 2^53 s — where the
// knapsack's integral clock used to overflow into a "negative deadline"
// — comes back 400 from every endpoint that takes one, before the clock
// moves, so the next ordinary request still succeeds. The largest
// accepted deadline is simply a loose one.
func TestOutOfRangeTimesRefused(t *testing.T) {
	s, err := NewServer(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	if rec := send(h, "POST", "/v1/jobs", `{"tenant":"alpha","template":"small","arrival_sec":10,"deadline_sec":2000}`); rec.Code != http.StatusCreated {
		t.Fatalf("first submit: %d %s", rec.Code, rec.Body)
	}
	for _, c := range []struct{ method, path, body string }{
		{"POST", "/v1/jobs", `{"tenant":"alpha","template":"small","arrival_sec":20,"deadline_sec":1e19}`},
		{"POST", "/v1/jobs", `{"tenant":"alpha","template":"small","arrival_sec":1e19}`},
		{"POST", "/v1/jobs", `{"tenant":"alpha","template":"small","arrival_sec":9007199254740992}`},
		{"POST", "/v1/jobs", `{"tenant":"alpha","template":"small","arrival_sec":20,"deadline_sec":1e308}`},
		{"POST", "/v1/jobs/0/cancel", `{"at_sec":1e19}`},
		{"POST", "/v1/advance", `{"to_sec":1e19}`},
	} {
		rec := send(h, c.method, c.path, c.body)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "2^53") {
			t.Fatalf("%s %s %s: %d %s, want 400", c.method, c.path, c.body, rec.Code, rec.Body)
		}
		if now := s.Engine().Now(); now != 10 {
			t.Fatalf("%s %s %s moved the clock to %g", c.method, c.path, c.body, now)
		}
	}
	for _, req := range []SubmitRequest{
		{Tenant: "alpha", Template: "small", ArrivalSec: math.NaN()},
		{Tenant: "alpha", Template: "small", ArrivalSec: math.Inf(1)},
		{Tenant: "alpha", Template: "small", ArrivalSec: 20, DeadlineSec: math.Inf(-1)},
	} {
		if _, err := s.Engine().Submit(req); err == nil || s.Engine().Now() != 10 {
			t.Fatalf("submit %+v: err %v, clock %g", req, err, s.Engine().Now())
		}
	}
	if rec := send(h, "POST", "/v1/jobs", `{"tenant":"beta","template":"big","arrival_sec":20,"deadline_sec":9007199254740991}`); rec.Code != http.StatusCreated {
		t.Fatalf("loosest deadline: %d %s", rec.Code, rec.Body)
	}
	if rec := send(h, "POST", "/v1/advance", `{"drain":true}`); rec.Code != http.StatusOK {
		t.Fatalf("drain: %d %s", rec.Code, rec.Body)
	}
}

// FuzzSubmitBody: whatever body reaches the submit handler, it never
// panics and answers 201, 409 or 400; a 400 leaves the engine clock
// where it was, no answer moves it to 2^53 s or past, and a drain
// afterwards still succeeds.
func FuzzSubmitBody(f *testing.F) {
	// The out-of-range and malformed seeds live in testdata/fuzz.
	f.Add([]byte(`{"tenant":"alpha","template":"small","arrival_sec":20,"deadline_sec":2000}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := NewServer(testConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		if rec := send(h, "POST", "/v1/jobs", `{"tenant":"alpha","template":"small","arrival_sec":10,"deadline_sec":2000}`); rec.Code != http.StatusCreated {
			t.Fatalf("first submit: %d %s", rec.Code, rec.Body)
		}
		rec := send(h, "POST", "/v1/jobs", string(body))
		switch rec.Code {
		case http.StatusCreated, http.StatusConflict:
		case http.StatusBadRequest:
			if now := s.Engine().Now(); now != 10 {
				t.Fatalf("400 for %q moved the clock to %g: %s", body, now, rec.Body)
			}
		default:
			t.Fatalf("body %q: status %d %s", body, rec.Code, rec.Body)
		}
		if now := s.Engine().Now(); now >= maxClockSec {
			t.Fatalf("body %q moved the clock out of range, to %g", body, now)
		}
		if rec := send(h, "POST", "/v1/advance", `{"drain":true}`); rec.Code != http.StatusOK {
			t.Fatalf("drain after %q: %d %s", body, rec.Code, rec.Body)
		}
	})
}
