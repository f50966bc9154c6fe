// Command edad is the EDA-flow serving daemon: a multi-tenant
// admission-controlled job queue over a bounded cloud fleet, with
// rolling-horizon re-optimization of every in-flight plan at each
// arrival and completion (internal/serve).
//
// In daemon mode (-listen) it characterizes the requested designs into
// job templates, builds the serving fleet, and serves the HTTP/JSON
// API: POST /v1/jobs to submit, GET /v1/jobs/{id} for status,
// GET /v1/jobs/{id}/events for progress, POST /v1/jobs/{id}/cancel,
// POST /v1/advance to move the simulated clock, GET /v1/tenants and
// GET /v1/report for the ledgers.
//
// In replay mode (-replay) it generates a seeded arrival trace and
// replays it twice over identical fleets — once under the
// rolling-horizon engine, once under the independent per-arrival
// baseline — and prints both reports plus the comparison. The replay
// is deterministic: the same seed and flags print byte-identical
// output at any -workers value.
//
// Usage:
//
//	edad -listen :8080 -designs ibex,aes
//	edad -replay -designs ibex,aes -trace-jobs 40 -trace-seed 7 -slack 4
//	edad -replay -trace-jobs 1000 -rate 0.5 -burst 0.4
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"

	"edacloud/internal/cli"
	"edacloud/internal/cloud"
	"edacloud/internal/core"
	"edacloud/internal/flow"
	"edacloud/internal/mckp"
	"edacloud/internal/serve"
	"edacloud/internal/techlib"
)

const prog = "edad"

// The flags are package state: main checks them, and the replay
// reads them where it needs them.
var (
	listen     = flag.String("listen", "", "address to serve the HTTP API on (daemon mode)")
	replay     = flag.Bool("replay", false, "replay a generated trace and compare rolling-horizon against the independent baseline")
	designList = flag.String("designs", "ibex,aes", "comma-separated designs to characterize into job templates")
	scale      = flag.Float64("scale", 0.03, "design scale factor for characterization")
	fleetSpec  = flag.String("fleet", "gp.1x=1,gp.2x=1,gp.4x=1,gp.8x=1,mem.1x=1,mem.2x=1,mem.4x=1,mem.8x=1",
		"serving fleet as name=count,...")
	tenantSpec = flag.String("tenants", "acme=3,blue=1", "tenants as name=weight,...")
	traceSeed  = flag.Int64("trace-seed", 1, "trace generator seed for -replay")
	traceJobs  = flag.Int("trace-jobs", 24, "trace length for -replay")
	rate       = flag.Float64("rate", 0.02, "mean arrival rate (jobs/simulated second) for -replay")
	burst      = flag.Float64("burst", 0.3, "arrival burstiness in [0,1) for -replay")
	slack      = flag.Float64("slack", 0, "deadline slack as a multiple of the template's slowest plan (0 = deadline-free)")
	workers    = flag.Int("workers", 0, "bound for characterization fan-out (0 = all cores; results identical)")
	spot       = flag.Float64("spot", 0, "spot discount in (0,1): extends the catalog with preemptible twins the fleet spec may name (e.g. gp.2x.spot)")
	hazardRate = flag.Float64("hazard-rate", 0, "spot revocation rate in events/hour: risk-adjusts admission and arms the fleet's revocation model")
	hazardSeed = flag.Int64("hazard-seed", 1, "seed for the fleet's revocation timelines (with -hazard-rate)")
	useCache   = flag.Bool("cache", false, "enable the fleet-wide artifact cache: templates carry their chain keys, so jobs sharing a flow prefix are planned as cache hits")
)

func main() {
	flag.Parse()
	var traceErr error
	if *replay {
		if err := (serve.TraceConfig{Jobs: *traceJobs, RatePerSec: *rate, Burstiness: *burst}).Check(); err != nil {
			traceErr = fmt.Errorf("-trace-jobs %d -rate %v -burst %v: %w", *traceJobs, *rate, *burst, err)
		}
	}
	tenants, tenantErr := parseTenants(*tenantSpec)
	names := strings.Split(*designList, ",")
	dup := repeated(names)
	cli.Check(prog,
		cli.NoArgs(flag.Args()),
		cli.Count("workers", *workers),
		cli.Scale("scale", *scale),
		cli.NonNegative("slack", *slack),
		cli.NonNegative("spot", *spot),
		cli.HazardRate(*hazardRate),
		cli.Refuse(*hazardRate > 0 && *spot == 0, "-hazard-rate %v needs -spot: without spot twins the fleet has nothing to revoke", *hazardRate),
		traceErr,
		tenantErr,
		cli.Refuse(dup != "", "-designs: %q is named twice (each design is one job template)", dup),
		cli.Refuse(*listen == "" && !*replay, "pass -listen for daemon mode or -replay for trace replay"),
	)

	catalog, hazards := cloud.DefaultCatalog(), map[string]float64(nil)
	if *spot > 0 {
		var err error
		if catalog, hazards, err = cli.SpotCatalog(catalog, *spot, *hazardRate); err != nil {
			cli.Fail(prog, err)
		}
	}
	fleet, err := cloud.ParseFleetSpec(catalog, *fleetSpec)
	if err != nil {
		cli.Fail(prog, err)
	}
	cli.Arm(fleet, *hazardSeed, hazards)
	templates, err := buildTemplates(catalog, fleet, names, *scale, *workers, *useCache)
	if err != nil {
		cli.Fail(prog, err)
	}

	cfg := serve.Config{Fleet: fleet, Tenants: tenants, Templates: templates, Hazards: hazards}
	if *replay {
		runReplay(cfg)
		return
	}

	srv, err := serve.NewServer(cfg)
	if err != nil {
		cli.Fail(prog, err)
	}
	fmt.Printf("edad: serving %d templates to %d tenants on %s\n", len(templates), len(tenants), *listen)
	cli.Fail(prog, http.ListenAndServe(*listen, srv.Handler()))
}

// parseTenants parses "name=weight,name=weight" and refuses a list
// serve.CheckTenants refuses.
func parseTenants(spec string) ([]serve.Tenant, error) {
	var out []serve.Tenant
	for _, part := range strings.Split(spec, ",") {
		name, weight, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("tenant %q is not name=weight", part)
		}
		w, err := strconv.ParseFloat(weight, 64)
		if err != nil {
			return nil, fmt.Errorf("tenant %q weight: %v", name, err)
		}
		out = append(out, serve.Tenant{Name: name, Weight: w})
	}
	if err := serve.CheckTenants(out); err != nil {
		return nil, fmt.Errorf("-tenants %s: %w", spec, err)
	}
	return out, nil
}

// repeated returns the first name, trimmed, that names lists twice, or
// "" when none repeats.
func repeated(names []string) string {
	seen := map[string]bool{}
	for _, n := range names {
		if n = strings.TrimSpace(n); seen[n] {
			return n
		}
		seen[n] = true
	}
	return ""
}

// buildTemplates characterizes each design and converts its deployment
// problem into a serving template, keeping only the machine choices
// the serving fleet actually offers.
func buildTemplates(catalog *cloud.Catalog, fleet *cloud.Fleet, names []string, scale float64, workers int, useCache bool) ([]serve.Template, error) {
	lib := techlib.Default14nm()
	opts := core.CharacterizeOptions{Scale: scale, Workers: workers}
	ds, err := cli.Designs(lib, names, opts, catalog)
	if err != nil {
		return nil, err
	}
	out := make([]serve.Template, len(ds))
	for i, d := range ds {
		prob, err := d.Probs[0].Restrict(fleet)
		if err != nil {
			return nil, err
		}
		out[i] = serve.Template{Name: d.Name, Kinds: flow.JobKinds(), Classes: prob.Classes}
		if useCache {
			sk, err := core.CacheChain(lib, d.Name, opts)
			if err != nil {
				return nil, err
			}
			for _, s := range sk {
				out[i].Chain = append(out[i].Chain, s.Key)
			}
		}
	}
	return out, nil
}

// runReplay generates the trace, replays it under both engines over
// identical fleets, and prints the comparison. The independent engine
// runs on a clone of cfg's fleet armed like it, so both face identical
// revocation timelines.
func runReplay(cfg serve.Config) {
	// Deadline slack is denominated in each template's slowest solo
	// runtime, so one -slack value works across designs and scales.
	slackSec := 0.0
	if *slack > 0 {
		worst := 0
		for _, tpl := range cfg.Templates {
			worst = max(worst, mckp.MaxTotalTime(tpl.Classes))
		}
		slackSec = *slack * float64(worst)
	}

	var tnames, dnames []string
	for _, t := range cfg.Tenants {
		tnames = append(tnames, t.Name)
	}
	for _, tpl := range cfg.Templates {
		dnames = append(dnames, tpl.Name)
	}
	trace, err := serve.TraceGen(serve.TraceConfig{
		Seed: *traceSeed, Jobs: *traceJobs, RatePerSec: *rate, Burstiness: *burst,
		SlackSec: slackSec, Tenants: tnames, Templates: dnames,
	})
	if err != nil {
		cli.Fail(prog, err)
	}

	fmt.Printf("edad replay: %d jobs, seed %d, rate %.3g/s, burstiness %.2f, slack %.0fs\n",
		*traceJobs, *traceSeed, *rate, *burst, slackSec)
	fmt.Printf("fleet: %s\n", *fleetSpec)
	if *spot > 0 {
		fmt.Printf("spot: %.0f%% discount\n", *spot*100)
	}
	if *hazardRate > 0 {
		fmt.Printf("hazards: %.3g revocations/h on spot capacity, seed %d\n", *hazardRate, *hazardSeed)
	}
	if *useCache {
		fmt.Printf("artifact cache: enabled (templates carry chain keys)\n")
	}
	fmt.Printf("tenants: %s\n", strings.Join(tnames, ", "))
	fmt.Printf("templates: %s\n\n", strings.Join(dnames, ", "))

	_, rolling, err := serve.Replay(cfg, trace)
	if err != nil {
		cli.Fail(prog, err)
	}
	cfg.Fleet, cfg.Independent = cli.Arm(cfg.Fleet.Clone(), *hazardSeed, cfg.Hazards), true
	_, indep, err := serve.Replay(cfg, trace)
	if err != nil {
		cli.Fail(prog, err)
	}

	fmt.Printf("rolling-horizon:\n%s\n", indent(rolling.String()))
	fmt.Printf("independent baseline:\n%s\n", indent(indep.String()))

	fmt.Printf("rolling vs independent: cost $%.4f vs $%.4f, makespan %.3fs vs %.3fs, admitted %d vs %d\n",
		rolling.TotalCostUSD, indep.TotalCostUSD,
		rolling.MakespanSec, indep.MakespanSec,
		rolling.Admitted, indep.Admitted)
	check("no admitted job missed its deadline or its promise",
		rolling.MissedDeadlines == 0 && rolling.MissedPromises == 0)
	// The cost comparison is apples-to-apples only when both engines
	// admitted the same jobs; when the rolling engine squeezes extra
	// jobs in, its bill covers more work.
	sameSet := len(rolling.Statuses) == len(indep.Statuses)
	if sameSet {
		for i := range rolling.Statuses {
			if (rolling.Statuses[i].Status == serve.StatusRejected) != (indep.Statuses[i].Status == serve.StatusRejected) {
				sameSet = false
				break
			}
		}
	}
	if sameSet {
		check("rolling-horizon cost within the independent baseline",
			rolling.TotalCostUSD <= indep.TotalCostUSD+1e-9)
	} else {
		fmt.Printf("note: admitted sets differ (rolling %d vs independent %d); total bills cover different work\n",
			rolling.Admitted, indep.Admitted)
	}
	printBusiest(rolling)
}

// printBusiest lists each tenant's share of the admitted spend — the
// fairness ledger at a glance.
func printBusiest(rep *serve.Report) {
	stats := append([]serve.TenantStat(nil), rep.Tenants...)
	sort.Slice(stats, func(i, j int) bool { return stats[i].CostUSD > stats[j].CostUSD })
	fmt.Println("\nspend by tenant:")
	for _, s := range stats {
		share := 0.0
		if rep.TotalCostUSD > 0 {
			share = 100 * s.CostUSD / rep.TotalCostUSD
		}
		fmt.Printf("  %-8s $%.4f (%5.1f%%) across %d jobs\n", s.Name, s.CostUSD, share, s.Done+s.Canceled)
	}
}

func check(what string, ok bool) {
	if ok {
		fmt.Printf("PASS: %s\n", what)
		return
	}
	fmt.Printf("FAIL: %s\n", what)
	os.Exit(1)
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = "  " + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}
