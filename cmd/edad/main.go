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
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"

	"edacloud/internal/cloud"
	"edacloud/internal/core"
	"edacloud/internal/mckp"
	"edacloud/internal/serve"
	"edacloud/internal/techlib"
)

func main() {
	listen := flag.String("listen", "", "address to serve the HTTP API on (daemon mode)")
	replay := flag.Bool("replay", false, "replay a generated trace and compare rolling-horizon against the independent baseline")
	designList := flag.String("designs", "ibex,aes", "comma-separated designs to characterize into job templates")
	scale := flag.Float64("scale", 0.03, "design scale factor for characterization")
	fleetSpec := flag.String("fleet", "gp.1x=1,gp.2x=1,gp.4x=1,gp.8x=1,mem.1x=1,mem.2x=1,mem.4x=1,mem.8x=1",
		"serving fleet as name=count,...")
	tenantSpec := flag.String("tenants", "acme=3,blue=1", "tenants as name=weight,...")
	traceSeed := flag.Int64("trace-seed", 1, "trace generator seed for -replay")
	traceJobs := flag.Int("trace-jobs", 24, "trace length for -replay")
	rate := flag.Float64("rate", 0.02, "mean arrival rate (jobs/simulated second) for -replay")
	burst := flag.Float64("burst", 0.3, "arrival burstiness in [0,1) for -replay")
	slack := flag.Float64("slack", 0, "deadline slack as a multiple of the template's slowest plan (0 = deadline-free)")
	workers := flag.Int("workers", 0, "bound for characterization and re-plan fan-out (0 = all cores; results identical)")
	spot := flag.Float64("spot", 0, "spot discount in (0,1): extends the catalog with preemptible twins the fleet spec may name (e.g. gp.2x.spot)")
	hazardRate := flag.Float64("hazard-rate", 0, "spot revocation rate in events/hour: risk-adjusts admission and arms the fleet's revocation model")
	hazardSeed := flag.Int64("hazard-seed", 1, "seed for the fleet's revocation timelines (with -hazard-rate)")
	useCache := flag.Bool("cache", false, "enable the fleet-wide artifact cache: templates carry their chain keys, so jobs sharing a flow prefix are planned as cache hits")
	flag.Parse()
	if flag.NArg() > 0 {
		fail(fmt.Errorf("edad: unexpected argument %q: every option is a -flag", flag.Arg(0)))
	}
	if !(*slack >= 0) || math.IsInf(*slack, 0) {
		fail(fmt.Errorf("edad: -slack %v: the deadline multiple must be finite and not negative (0 = deadline-free)", *slack))
	}
	if !(*hazardRate >= 0) || math.IsInf(*hazardRate, 0) {
		fail(fmt.Errorf("edad: -hazard-rate %v: the revocation rate must be finite and not negative (0 = no revocations)", *hazardRate))
	}

	if *listen == "" && !*replay {
		fail(fmt.Errorf("edad: pass -listen for daemon mode or -replay for trace replay"))
	}

	catalog := cloud.DefaultCatalog()
	if *spot > 0 {
		var err error
		if catalog, err = catalog.WithSpot(*spot); err != nil {
			fail(err)
		}
	}
	var hazards map[string]float64
	if *hazardRate > 0 {
		hazards = cloud.UniformSpotHazards(catalog, *hazardRate)
	}
	armFleet := func(spec string) *cloud.Fleet {
		f, err := cloud.ParseFleetSpec(catalog, spec)
		if err != nil {
			fail(err)
		}
		if hazards != nil {
			f.Revocation = cloud.NewRevocationModel(*hazardSeed, hazards)
		}
		return f
	}
	fleet := armFleet(*fleetSpec)
	tenants, err := parseTenants(*tenantSpec)
	if err != nil {
		fail(err)
	}
	designs := strings.Split(*designList, ",")
	templates, err := buildTemplates(catalog, fleet, designs, *scale, *workers, *useCache)
	if err != nil {
		fail(err)
	}

	if *replay {
		runReplay(fleet, tenants, templates, replayParams{
			seed: *traceSeed, jobs: *traceJobs, rate: *rate, burst: *burst,
			slack: *slack, workers: *workers,
			fleetSpec: *fleetSpec, designs: designs,
			hazards: hazards, hazardRate: *hazardRate, hazardSeed: *hazardSeed,
			spot: *spot, cache: *useCache, armFleet: armFleet,
		})
		return
	}

	srv, err := serve.NewServer(serve.Config{
		Fleet: fleet, Tenants: tenants, Templates: templates, Workers: *workers,
		Hazards: hazards,
	})
	if err != nil {
		fail(err)
	}
	fmt.Printf("edad: serving %d templates to %d tenants on %s\n", len(templates), len(tenants), *listen)
	fail(http.ListenAndServe(*listen, srv.Handler()))
}

// parseTenants parses "name=weight,name=weight".
func parseTenants(spec string) ([]serve.Tenant, error) {
	var out []serve.Tenant
	for _, part := range strings.Split(spec, ",") {
		name, weight, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("edad: tenant %q is not name=weight", part)
		}
		w, err := strconv.ParseFloat(weight, 64)
		if err != nil {
			return nil, fmt.Errorf("edad: tenant %q weight: %v", name, err)
		}
		out = append(out, serve.Tenant{Name: name, Weight: w})
	}
	return out, nil
}

// buildTemplates characterizes each design and converts its deployment
// problem into a serving template, keeping only the machine choices
// the serving fleet actually offers.
func buildTemplates(catalog *cloud.Catalog, fleet *cloud.Fleet, designs []string, scale float64, workers int, useCache bool) ([]serve.Template, error) {
	lib := techlib.Default14nm()
	opts := core.CharacterizeOptions{Scale: scale, Workers: workers}
	var out []serve.Template
	for _, d := range designs {
		d = strings.TrimSpace(d)
		char, err := core.CharacterizeEval(lib, d, opts)
		if err != nil {
			return nil, err
		}
		prob, err := core.BuildDeploymentProblem(char, catalog)
		if err == nil {
			prob, err = prob.Restrict(fleet)
		}
		if err != nil {
			return nil, err
		}
		tpl := serve.Template{Name: d, Kinds: core.JobKinds(), Classes: prob.Classes}
		if useCache {
			sk, err := core.CacheChain(lib, d, opts)
			if err != nil {
				return nil, err
			}
			for _, s := range sk {
				tpl.Chain = append(tpl.Chain, s.Key)
			}
		}
		out = append(out, tpl)
	}
	return out, nil
}

type replayParams struct {
	seed        int64
	jobs        int
	rate, burst float64
	slack       float64
	workers     int
	fleetSpec   string
	designs     []string
	hazards     map[string]float64
	hazardRate  float64
	hazardSeed  int64
	spot        float64
	cache       bool
	// armFleet builds a fresh fleet from a spec with the replay's
	// revocation model attached — both engines must face identical
	// revocation timelines.
	armFleet func(string) *cloud.Fleet
}

// runReplay generates the trace, replays it under both engines over
// identical fleets, and prints the comparison.
func runReplay(fleet *cloud.Fleet, tenants []serve.Tenant, templates []serve.Template, p replayParams) {
	// Deadline slack is denominated in each template's slowest solo
	// runtime, so one -slack value works across designs and scales.
	slackSec := 0.0
	if p.slack > 0 {
		worst := 0
		for _, tpl := range templates {
			worst = max(worst, mckp.MaxTotalTime(tpl.Classes))
		}
		slackSec = p.slack * float64(worst)
	}

	var tnames, dnames []string
	for _, t := range tenants {
		tnames = append(tnames, t.Name)
	}
	for _, tpl := range templates {
		dnames = append(dnames, tpl.Name)
	}
	trace, err := serve.TraceGen(serve.TraceConfig{
		Seed: p.seed, Jobs: p.jobs, RatePerSec: p.rate, Burstiness: p.burst,
		SlackSec: slackSec, Tenants: tnames, Templates: dnames,
	})
	if err != nil {
		fail(err)
	}

	fmt.Printf("edad replay: %d jobs, seed %d, rate %.3g/s, burstiness %.2f, slack %.0fs\n",
		p.jobs, p.seed, p.rate, p.burst, slackSec)
	fmt.Printf("fleet: %s\n", p.fleetSpec)
	if p.spot > 0 {
		fmt.Printf("spot: %.0f%% discount\n", 100*p.spot)
	}
	if p.hazardRate > 0 {
		fmt.Printf("hazards: %.3g revocations/h on spot capacity, seed %d\n", p.hazardRate, p.hazardSeed)
	}
	if p.cache {
		fmt.Printf("artifact cache: enabled (templates carry chain keys)\n")
	}
	fmt.Printf("tenants: %s\n", strings.Join(tnames, ", "))
	fmt.Printf("templates: %s\n\n", strings.Join(dnames, ", "))

	_, rolling, err := serve.Replay(serve.Config{
		Fleet: fleet, Tenants: tenants, Templates: templates, Workers: p.workers,
		Hazards: p.hazards,
	}, trace)
	if err != nil {
		fail(err)
	}
	_, indep, err := serve.Replay(serve.Config{
		Fleet: p.armFleet(p.fleetSpec), Tenants: tenants, Templates: templates, Workers: p.workers,
		Hazards:     p.hazards,
		Independent: true,
	}, trace)
	if err != nil {
		fail(err)
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

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
