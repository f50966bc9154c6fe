package main

import (
	"bytes"
	"io"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func defNames(defs []metricDef) []string {
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.Name
	}
	sort.Strings(names)
	return names
}

// TestSmoke runs every workload once untraced and once traced on small
// inputs, and checks the output against BENCHMARK.json in both
// directions, the shape of the trace, and every correctness check.
func TestSmoke(t *testing.T) {
	decl, err := readDeclaration()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range decl.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	var selected []*workload
	for i := range workloads {
		selected = append(selected, &workloads[i])
	}

	// One second asks for the fewest rounds a run makes.
	rep, spans, err := measure(config{seed: 1, seconds: 1, traced: true, size: smoke}, selected)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != len(workloads) {
		t.Fatalf("%d workloads reported, want %d", len(rep.Workloads), len(workloads))
	}
	for _, wr := range rep.Workloads {
		if wr.Rounds != 2 {
			t.Errorf("%s: %d rounds, want one untraced and one traced", wr.Name, wr.Rounds)
		}
		if wr.Failed != 0 || wr.CheckFailures != 0 {
			t.Errorf("%s: %d ops failed, %d checks failed: %v", wr.Name, wr.Failed, wr.CheckFailures, wr.Checks)
		}
		if got := sortedKeys(wr.EndToEnd); !reflect.DeepEqual(got, defNames(endToEnd)) {
			t.Errorf("%s: end-to-end metrics %v", wr.Name, got)
		}
		if got := sortedKeys(wr.PerLayer); !reflect.DeepEqual(got, defNames(perLayer())) {
			t.Errorf("%s: per-layer metrics %v", wr.Name, got)
		}
		for name, m := range wr.EndToEnd {
			if m.Value <= 0 {
				t.Errorf("%s: %s is %v, want a positive value", wr.Name, name, m.Value)
			}
		}
		for _, traced := range []bool{false, true} {
			line := wr.resultLine(traced)
			if got := sortedKeys(line); !reflect.DeepEqual(got, []string{"attempted", "correct", "failed", "metrics"}) {
				t.Errorf("%s: result line has keys %v", wr.Name, got)
			}
			if line["correct"] != true {
				t.Errorf("%s: result line is not correct", wr.Name)
			}
		}
	}

	// measure has already checked that children lie inside their parents
	// and sum to no more than them; check here that the nesting is there.
	if err := checkSpans(spans); err != nil {
		t.Error(err)
	}
	parentOf := map[string]string{}
	opened := map[string]bool{}
	for _, s := range spans {
		opened[s.Name] = true
		if s.Parent >= 0 {
			parentOf[s.Name] = spans[s.Parent].Name
		}
	}
	for _, stage := range stageSpans {
		if parentOf[stage] != "flow.pipeline" {
			t.Errorf("span %s has parent %q, want flow.pipeline", stage, parentOf[stage])
		}
	}
	for _, name := range spanNames {
		if !opened[name] {
			t.Errorf("span %s was never opened", name)
		}
	}
	if len(opened) != len(spanNames) {
		t.Errorf("%d span names opened, %d declared", len(opened), len(spanNames))
	}
}

// TestReportTakesEachOpAtItsBest pins the timings' definition: every item
// and op at the lowest it had in any round, not the best whole round.
func TestReportTakesEachOpAtItsBest(t *testing.T) {
	ms, s := time.Millisecond, time.Second
	r := &running{
		w:      &workload{name: "w", unit: "op"},
		setupS: []float64{3, 1, 2},
		rounds: []roundStats{
			{units: 10, use: usage{wall: 6 * s}, itemWall: []time.Duration{2 * s, 4 * s}, lat: []time.Duration{1 * ms, 9 * ms, 3 * ms}},
			{units: 10, use: usage{wall: 4 * s}, itemWall: []time.Duration{3 * s, 1 * s}, lat: []time.Duration{2 * ms, 4 * ms, 5 * ms}},
		},
	}
	got := r.report(config{}, nil).EndToEnd
	for name, want := range map[string]float64{
		"throughput": 10.0 / 3, // items at 2 s and 1 s; the best round did 2.5
		"op_p50_ms":  3,        // ops at 1, 4 and 3 ms
		"op_p99_ms":  4,        // the rounds' own p99 are 9 and 5
		"setup_s":    2,
	} {
		if got[name].Value != want {
			t.Errorf("%s is %v, want %v", name, got[name].Value, want)
		}
	}
}

func TestCheckSpans(t *testing.T) {
	good := []span{
		{ID: 0, Parent: -1, Name: "p", StartNs: 0, EndNs: 100},
		{ID: 1, Parent: 0, Name: "a", StartNs: 10, EndNs: 40},
		{ID: 2, Parent: 0, Name: "b", StartNs: 40, EndNs: 100},
	}
	if err := checkSpans(good); err != nil {
		t.Errorf("well-formed trace rejected: %v", err)
	}
	in, _ := summarize(good, "")
	if in["p"].SelfS != 10e-9 || in["a"].N != 1 {
		t.Errorf("self time of p is %v, want 10 ns", in["p"].SelfS)
	}
	outside := append([]span(nil), good...)
	outside[2].EndNs = 101
	if err := checkSpans(outside); err == nil {
		t.Error("a child ending after its parent was accepted")
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	all := func(v float64) map[string]metricValue {
		m := map[string]metricValue{}
		for _, def := range endToEnd {
			m[def.Name] = metricValue{Value: v}
		}
		return m
	}
	mk := func(name string, seconds float64, w ...workloadReport) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, report{Seed: 1, Seconds: seconds, Workloads: w}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	flowRun := func(throughput float64, digest string) workloadReport {
		wr := workloadReport{Name: "flow-full", Rounds: 5, SimDigest: digest, EndToEnd: all(10), Counters: map[string]float64{"synth.cells": 5}}
		wr.EndToEnd["throughput"] = metricValue{Value: throughput}
		return wr
	}
	base := mk("base.json", 15, flowRun(100, "aa"))
	noP99 := flowRun(100, "aa")
	delete(noP99.EndToEnd, "op_p99_ms")
	fewer := flowRun(100, "aa")
	fewer.Rounds = 4
	for _, tc := range []struct {
		name    string
		a, b    string
		code    int
		flagged []string
	}{
		{"a 1 % slowdown", base, mk("b.json", 15, flowRun(99, "aa")), 0, nil},
		{"a 50 % slowdown and a new digest", base, mk("c.json", 15, flowRun(50, "bb")), 1, []string{"BREACH", "CHANGED"}},
		{"a workload missing from the second run", base, mk("d.json", 15, workloadReport{Name: "synth-large"}), 1, []string{"MISSING"}},
		{"a workload missing from the first run", mk("e.json", 15), base, 1, []string{"MISSING"}},
		{"a metric missing from the second run", base, mk("f.json", 15, noP99), 1, []string{"MISSING"}},
		{"a metric missing from the first run", mk("g.json", 15, noP99), base, 1, []string{"MISSING"}},
		{"another number of rounds", base, mk("h.json", 15, fewer), 1, []string{"rounds differ"}},
		{"another -seconds", base, mk("i.json", 10, flowRun(100, "aa")), 2, nil},
	} {
		var out bytes.Buffer
		if code := compareFiles(tc.a, tc.b, &out, io.Discard); code != tc.code {
			t.Errorf("%s exits %d, want %d:\n%s", tc.name, code, tc.code, out.String())
		}
		for _, flag := range tc.flagged {
			if !strings.Contains(out.String(), flag) {
				t.Errorf("%s: %s not flagged:\n%s", tc.name, flag, out.String())
			}
		}
		if tc.code == 0 && strings.Contains(out.String(), "CHANGED") {
			t.Errorf("%s: equal digests flagged:\n%s", tc.name, out.String())
		}
	}
}
