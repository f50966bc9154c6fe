#!/usr/bin/env bash
# Name guards: each keeps one deleted or merged piece of code from coming
# back by grepping the tree for its names. Run from the repository root:
#
#	.github/guards.sh
#
# The table below has one row per guard: its name on an unindented line,
# then its check on tab-indented lines, a shell command that succeeds
# while the tree is clean and prints what it matched when it fails. Every
# row runs; the script fails if any row fails and names each one.
set -u

failed=0
run() {
	if ! bash -c "$2"; then
		echo "::error title=guard::$1"
		failed=1
	fi
}

name='' check=''
while IFS= read -r line; do
	if [[ $line == $'\t'* ]]; then
		check+="${line#$'\t'}"$'\n'
		continue
	fi
	[[ -n $name ]] && run "$name" "$check"
	name=$line check=''
done <<'GUARDS'
One FNV hasher (internal/hash owns the FNV-1a prime — any other copy is a re-forked hasher)
	! grep -rn 1099511628211 --include='*.go' internal cmd | grep -v -e '^internal/hash/'
One placement rule (a job without a Plan holds its Instance for the whole flow, a job with one re-instances per stage onto Plan[k] and a zero type means any machine; a placement-policy value beside that rule would restate what the job already says)
	! grep -rnwE --include='*.go' 'type Policy interface|SingleInstance|FirstFit|PlanPolicy' internal cmd examples bench_test.go
One stage-lease planner (the batch planner, estimator and forecast plan per-stage leases only; a held-lease planning path would be a second discipline to keep in step)
	! grep -rnw Hold --include='*.go' internal/mckp internal/core internal/flow
One stage loop, one cache discipline (Pipeline.run is the only stage loop and the scheduler's frozen, serially settled store the only cache form; -w keeps WithStages legal)
	! grep -rnw -e WithCache -e WithCheckpoints -e ResumeOn -e WithStage -e cacheFrozen -e RunHierarchicalBatch --include='*.go' internal cmd examples
No unread file formats (the engines pass typed artifacts in memory; no program writes or parses Verilog, Liberty, placement files, STA reports, DOT or saved predictors, so a reader or writer for one is code only its own test calls)
	! grep -rnw -e WriteVerilog -e ParseVerilog -e WriteLiberty -e ParseLiberty -e WritePlacement -e ReadPlacement -e WriteReport -e WriteDot -e ReadPredictor -e ReadModel -e ReadModelFrom -e ReadScaler -e ReadScalerFrom --include='*.go' internal cmd examples bench
One value, one constant (placer, router, STA, explorer, serving and retry settings that no program set are unexported constants beside the code that reads them; a field by one of these names would be a one-value option again — RowHeight and Bins have other legitimate uses, so they are not listed)
	! grep -rnw -e TargetUtil -e CGIters -e SpreadIters -e HistoryCost -e InputSlewNs -e WireCapPerUm -e ClockPeriodsNs -e SlackFactors -e FromScratch -e 'Interference:' --include='*.go' internal cmd examples && ! grep -rnw BackoffSec --include='*.go' internal/serve
Reading a front-counted value never drains the simulator (Probe.Instrs returns the instruction count the front keeps itself; Counters().Instrs waits for the helper and replays the batch in hand just to read it)
	! grep -rn --include='*.go' --exclude='*_test.go' 'Counters()\.Instrs' internal
One $ cost calculator (internal/core/price.go is the only place a stage runtime becomes a priced choice and a choice table becomes knapsack classes — measured and predicted runtimes, the DSE's cheap rung, restrictions and cache adjustments all go through it; a selection becomes a plan only through core.planFromSelection)
	! grep -rn --include='*.go' --exclude='*_test.go' -e 'mckp\.Item{' -e 'mckp\.Class{' internal/core internal/dse | grep -v '^internal/core/price\.go:' && ! grep -rnw -e ExportedPick -e predictedClasses --include='*.go' internal cmd examples
One routing path (route.Route is one serial A* over the whole grid, probed or not and at any worker bound; the tile statistics only feed the machine model, so a tile-parallel router, a tile-size option or a routing-only worker rule in the flow would be a second routing path)
	! grep -rnw -e routeTilesParallel -e tileBounds -e routingWorkers -e TileSize --include='*.go' internal cmd examples
One choice-table transform (mckp.Adjust is the only rewrite of a knapsack table before the DP — a predicted cache hit collapses its class to the probe constant and is never risk-priced, every other hazard-bearing item gets its expected price — so a separate risk or cache rewrite, or a second hit-vector builder, would let the two rules be stacked in the wrong order again; -w keeps CacheAdjusted legal)
	! grep -rnw -e RiskAdjust -e CacheAdjust -e hitVector --include='*.go' internal cmd examples
One perf harness (bench/ is the only comparator, snapshot format and heap sampler — go run -C bench . -compare against BENCHMARK.json's bounds, perf.peak_heap_mib from runtime/metrics — so a second comparator, snapshot env knob or heap watermark would be a second harness to keep in step; par.Reduce had no caller)
	! grep -rn -e benchdiff -e BENCH_JSON -e benchSnapshot -e MemWatermark -e 'func Reduce' --include='*.go' internal cmd examples bench_test.go
Run-owned pass graphs
	! grep -rn -e 'aig\.New(' -e 'aig\.NewSized(' -e 'make(\[\]aig\.Lit, g\.NumVars())' --include='*.go' internal/synth | grep -v -e '_test\.go:' -e '^internal/synth/scratch\.go:'
One command layer
	! grep -rn --include='*.go' --exclude='*_test.go' -e 'func fail(' -e 'WithSpot(' -e 'UniformSpotHazards(' -e 'NewRevocationModel(' -e 'math\.IsInf(' cmd
One way into each engine
	! grep -rn --include='*.go' --exclude='*_test.go' -e 'func Mul(' -e 'func MulATB(' -e 'func MulABT(' internal/mat && ! grep -rn --include='*.go' --exclude='*_test.go' -e 'func Default(' -e 'func NewPool(' -e ') Close()' internal/par && ! grep -rn --include='*.go' --exclude='*_test.go' -e MapObjective -e MapArea -e MapToCellsObjective -e 'func Balance(' -e 'func Rewrite(' -e 'func Refactor(' -e 'func Optimize(' -e 'func rebuildSerial(' -e 'func balanceSerial(' -e 'NumParts() <= 1' internal/synth && ! grep -rn --include='*.go' --exclude='*_test.go' -e 'ints\.Min(' -e 'ints\.Max(' .
One stage-kind table
	! grep -rnE --include='*.go' --exclude='*_test.go' 'core\.Job(Kind|Synthesis|Placement|Routing|STA)\b' internal cmd examples && ! grep -rn --include='*.go' --exclude='*_test.go' 'type JobKind =' internal/core && ! grep -rn --include='*.go' --exclude='*_test.go' 'case "synthesis"' cmd && ! grep -rn --include='*.go' --exclude='*_test.go' ') Speedup(' internal/perf
Only what a program calls
	! grep -rn --include='*.go' --exclude='*_test.go' -e 'func SolveGreedy' -e 'func Cheapest(' -e OptimizeGreedy -e 'func Equivalent(' -e 'func Signature(' -e GraphsForDesign -e PredictFlowRuntimes -e OptimizeBatchOpts -e ') RunOn(' -e 'NewRunContext(' internal cmd examples && ! grep -rn --include='*.go' --exclude='*_test.go' ') Reset()' internal/cloud && ! grep -rn --include='*.go' --exclude='*_test.go' ') Pool()' internal/par
Re-plan storage is kept (and a round builds its DP tables inline, in order, in one path)
	! grep -n 'map\[JobKind\]' internal/flow/scheduler.go internal/flow/queue.go internal/flow/forecast.go internal/flow/cache.go && ! grep -rn --include='*.go' --exclude='*_test.go' 'make(\[\]step' internal/mckp | grep -v '^internal/mckp/scratch\.go:' && ! grep -rnw --include='*.go' --exclude='*_test.go' -e jobSlots -e pricedSolve internal/mckp && ! grep -rnF --include='*.go' --exclude='*_test.go' -e '.Snapshot()' internal/serve && \
	! grep -rnw --include='*.go' -e parCells -e solveWithRelax internal && ! grep -rnF --include='*.go' 'func ForecastGated(' internal && ! grep -rnF --include='*.go' --exclude='*_test.go' '"edacloud/internal/par"' internal/mckp && \
	! awk '/^type BatchState struct/,/^}/' internal/mckp/batch.go | grep -E '^\s*Workers\s' && ! awk '/^type Config struct/,/^}/' internal/serve/serve.go | grep -E '^\s*Workers\s'
No co-tenant model (a characterized VM is its vCPUs of one host and nothing else runs there, as perf.Xeon14 models it; the cgroup scheduler, its interference factor and the co-tenant option multiplied every runtime by exactly 1)
	! grep -rn --include='*.go' -e 'cloud\.CGroup' -e 'DefaultHost(' -e 'Interference float64' -e '\.Interference\b' -e 'Background \[\]' -e maxVCPUs internal cmd examples bench_test.go
One netlist connectivity store (a cell is its type, output net and first-pin offset and a net its driver; cell inputs live in the netlist's one pin array, each net's sinks and outputs in the index it derives from that array and the output ports, and only ports store names; a name, pin list or sink list stored on a Cell or Net, or a mapper that plans a copy of its cover, builds names or carves sink lists itself, would be a second store to keep in step)
	! awk '/^type (Cell|Net) struct/,/^}/' internal/netlist/*.go | grep -E '^\s*(Ins|Sinks|POs|Name)\b' && ! grep -rn --include='*.go' --exclude='*_test.go' -e 'netlist\.PinRef' -e 'Sinks' -e 'NetPOs' -e 'type cover struct' -e 'strings\.Builder' internal/synth
GUARDS
[[ -n $name ]] && run "$name" "$check"
exit $failed
