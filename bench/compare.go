package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"text/tabwriter"
)

// benchmarkFile is the declaration at the repository's root, one
// directory above this one.
const benchmarkFile = "../BENCHMARK.json"

// declaration is the part of BENCHMARK.json the benchmark itself reads.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// readDeclaration reads BENCHMARK.json and checks that it names this
// program's workloads and metrics, and this program names its, in the
// same order. Every run starts with it, so that each run a driver makes
// is also the check that the two have not drifted apart.
func readDeclaration() (*declaration, error) {
	var decl declaration
	if err := readJSON(benchmarkFile, &decl); err != nil {
		return nil, err
	}
	var have, declared []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	for _, w := range decl.Workloads {
		declared = append(declared, w.Name)
	}
	if !slices.Equal(declared, have) {
		return nil, fmt.Errorf("%s declares workloads %v, the benchmark has %v", benchmarkFile, declared, have)
	}
	var declaredE2E []metricDef
	for _, m := range decl.EndToEnd {
		declaredE2E = append(declaredE2E, m.metricDef)
	}
	if !slices.Equal(declaredE2E, endToEnd) {
		return nil, fmt.Errorf("%s declares end-to-end metrics %v, the benchmark has %v", benchmarkFile, declaredE2E, endToEnd)
	}
	if !slices.Equal(decl.PerLayer, perLayer()) {
		return nil, fmt.Errorf("%s declares per-layer metrics %v, the benchmark has %v", benchmarkFile, decl.PerLayer, perLayer())
	}
	return &decl, nil
}

// compareFiles prints, for every workload and end-to-end metric of two
// runs, how much worse the second run's value is than the first's as a
// share of the first's, against the metric's bound. It flags a changed
// sim_digest or exact counter, which mean changed behaviour and not
// changed speed. It returns 1 if a bound is breached, if a workload or
// a metric is missing from either run, or if the second run had
// failures; and 2, comparing nothing, if the runs are not of one kind.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	decl, err := readDeclaration()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	var a, b report
	for path, v := range map[string]*report{pathA: &a, pathB: &b} {
		if err := readJSON(path, v); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	// A value takes each op at its best over the run's rounds, so it
	// depends on their number, which follows from the seconds.
	if a.Seconds != b.Seconds || a.Traced != b.Traced {
		fmt.Fprintf(stderr, "bench: the runs differ in kind: -seconds %v and %v, traced %v and %v\n", a.Seconds, b.Seconds, a.Traced, b.Traced)
		return 2
	}
	if a.Seed != b.Seed {
		fmt.Fprintf(stdout, "note: seeds differ (%d and %d), so digests and counters of seeded inputs differ too\n", a.Seed, b.Seed)
	}
	find := func(r report, name string) *workloadReport {
		for i := range r.Workloads {
			if r.Workloads[i].Name == name {
				return &r.Workloads[i]
			}
		}
		return nil
	}
	breaches := 0
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tfirst\tsecond\tworse by\tbound\t\n")
	for _, w := range decl.Workloads {
		wa, wb := find(a, w.Name), find(b, w.Name)
		if wa == nil && wb == nil {
			// Both runs were of other workloads.
			continue
		}
		if wa == nil || wb == nil || wa.Rounds != wb.Rounds {
			fmt.Fprintf(tw, "%s\t\t\t\t\t\tMISSING from one run, or rounds differ\n", w.Name)
			breaches++
			continue
		}
		for _, def := range decl.EndToEnd {
			va, vb := wa.EndToEnd[def.Name].Value, wb.EndToEnd[def.Name].Value
			if va <= 0 || vb <= 0 {
				fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t\t\tMISSING\n", w.Name, def.Name, va, vb)
				breaches++
				continue
			}
			worse := (vb - va) / va
			if def.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > def.Bound {
				verdict = "BREACH"
				breaches++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.0f%%\t%s\n", w.Name, def.Name, va, vb, 100*worse, 100*def.Bound, verdict)
		}
		if wb.Failed > 0 || wb.CheckFailures > 0 {
			fmt.Fprintf(tw, "%s\tfailures\t%d+%d\t%d+%d\t\t0\tBREACH\n", w.Name, wa.Failed, wa.CheckFailures, wb.Failed, wb.CheckFailures)
			breaches++
		}
		if wa.SimDigest != wb.SimDigest {
			fmt.Fprintf(tw, "%s\tsim_digest\t%s\t%s\t\t\tCHANGED\n", w.Name, wa.SimDigest, wb.SimDigest)
		}
		names := map[string]bool{}
		for k := range wa.Counters {
			names[k] = true
		}
		for k := range wb.Counters {
			names[k] = true
		}
		for _, k := range slices.Sorted(maps.Keys(names)) {
			if wa.Counters[k] != wb.Counters[k] {
				fmt.Fprintf(tw, "%s\t%s\t%v\t%v\t\t\tCHANGED\n", w.Name, k, wa.Counters[k], wb.Counters[k])
			}
		}
	}
	tw.Flush()
	if breaches > 0 {
		fmt.Fprintf(stdout, "%d breached\n", breaches)
		return 1
	}
	return 0
}
