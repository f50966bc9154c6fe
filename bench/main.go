// Command bench is the repository's host-time benchmark: four
// closed-loop workloads driven from one goroutine through the public
// functions of edacloud/internal/..., timed from outside. See README.md
// beside this file for what it measures and why.
//
// Usage, from this directory (go run -C bench . from the repository root):
//
//	go run . [-workload flow-full|synth-large|serve-replay|explore-dse|all]
//	         [-seed n] [-seconds s] [-trace 0|1]
//	go run . -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"text/tabwriter"
)

// outDir receives results.json and, from a traced run, trace.json and
// trace-summary.json. It is relative to the working directory, which
// go run -C makes this directory.
const outDir = "out"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all: their rounds then interleave")
	seed := fs.Int64("seed", 1, "seed of every draw the benchmark makes")
	seconds := fs.Float64("seconds", 15, "timed work per workload, which fixes its number of rounds")
	trace := fs.Int("trace", 0, "1 records spans and alternates traced with untraced rounds")
	compare := fs.Bool("compare", false, "compare two results.json files against BENCHMARK.json's bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two results.json files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	var selected []*workload
	for i := range workloads {
		if *name == "all" || *name == workloads[i].name {
			selected = append(selected, &workloads[i])
		}
	}
	if len(selected) == 0 || fs.NArg() != 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "bench: unknown workload %q, stray arguments or a -trace that is not 0 or 1\n", *name)
		return 2
	}
	if _, err := readDeclaration(); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	c := config{seed: *seed, seconds: *seconds, traced: *trace == 1, size: full}
	rep, spans, err := measure(c, selected)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	printReport(stdout, rep)
	if err := writeOutputs(rep, spans); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if len(rep.Workloads) == 1 {
		// The last line is the one a driver reads.
		line, err := json.Marshal(rep.Workloads[0].resultLine(c.traced))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return 0
}

// measure sets the workloads up and runs their rounds round-robin, so
// that a drift in the machine's speed falls on all of them alike. The
// number of rounds follows from the seconds asked for and not from the
// speed measured, so it is the same on both sides of a comparison. A
// traced run alternates untraced and traced rounds; the difference is
// the tracing overhead.
func measure(c config, selected []*workload) (*report, []span, error) {
	var tr *tracer
	if c.traced {
		tr = newTracer()
	}
	var runs []*running
	for _, w := range selected {
		r, err := prepare(w, c, tr)
		if err != nil {
			return nil, nil, err
		}
		runs = append(runs, r)
	}
	for active := true; active; {
		active = false
		for _, r := range runs {
			if len(r.rounds) == r.w.rounds(c.seconds) {
				continue
			}
			active = true
			if c.traced && len(r.rounds)%2 == 1 {
				r.runRound(c, tr)
			} else {
				r.runRound(c, nil)
			}
		}
	}
	rep := &report{
		Seed: c.seed, Seconds: c.seconds, Traced: c.traced,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, r := range runs {
		var finishErr error
		if c.traced && r.plan.finish != nil {
			tr.scope(r.w.name, -1)
			tr.nextOp()
			r.extra, finishErr = r.plan.finish(tr)
		}
		wr := r.report(c, tr)
		if finishErr != nil {
			wr.Checks = append(wr.Checks, finishErr.Error())
			wr.CheckFailures++
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	if tr == nil {
		return rep, nil, nil
	}
	return rep, tr.spans, checkSpans(tr.spans)
}

func printReport(w io.Writer, rep *report) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tvalue\tunit\tper round\n")
	for _, wr := range rep.Workloads {
		for _, def := range endToEnd {
			m := wr.EndToEnd[def.Name]
			var rounds []string
			for i, v := range m.Rounds {
				if i == 10 {
					rounds = append(rounds, fmt.Sprintf("... (%d)", len(m.Rounds)))
					break
				}
				rounds = append(rounds, fmt.Sprintf("%.4g", v))
			}
			unit := m.Unit
			if def.Name == "throughput" {
				unit = wr.Unit + "/s"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t%s\n", wr.Name, def.Name, m.Value, unit, strings.Join(rounds, " "))
		}
		fmt.Fprintf(tw, "%s\tfail_share\t%.6g\tshare\t%d of %d\n", wr.Name, float64(wr.Failed)/float64(max(wr.Attempted, 1)), wr.Failed, wr.Attempted)
		fmt.Fprintf(tw, "%s\tcheck_failures\t%d\tcount\t\n", wr.Name, wr.CheckFailures)
		fmt.Fprintf(tw, "%s\tsim_digest\t%s\t\t\n", wr.Name, wr.SimDigest)
		for _, def := range perLayer() {
			if m, ok := wr.PerLayer[def.Name]; ok && m.Value != 0 {
				fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t\n", wr.Name, def.Name, m.Value, m.Unit)
			}
		}
		for _, msg := range wr.Checks {
			fmt.Fprintf(tw, "%s\tFAILED\t%s\t\t\n", wr.Name, msg)
		}
	}
	tw.Flush()
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeOutputs writes the run's files under outDir, over any earlier ones.
func writeOutputs(rep *report, spans []span) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if !rep.Traced {
		return writeJSON(filepath.Join(outDir, "results.json"), rep)
	}
	if err := writeJSON(filepath.Join(outDir, "trace-summary.json"), rep); err != nil {
		return err
	}
	return writeJSON(filepath.Join(outDir, "trace.json"), spans)
}
