package synth

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"edacloud/internal/aig"
	"edacloud/internal/designs"
	"edacloud/internal/netlist"
	"edacloud/internal/par"
	"edacloud/internal/perf"
	"edacloud/internal/techlib"
)

// TestMapperSizesNetlistOnce: the mapper adds its cells straight into a
// netlist reserved at its estimate and builds the fanout index before
// it returns the netlist, so the op pays for the index. The index is
// exact: its sink and output lists are allocated at their final length,
// each net's sinks are the pins that read it, and together they are
// every cell's pins and every primary output.
func TestMapperSizesNetlistOnce(t *testing.T) {
	lib := techlib.Default14nm()
	for _, name := range []string{"adder", "priority", "bar", "dec"} {
		g := designs.MustBenchmark(name, 0.5)
		for _, rname := range []string{"raw", "resyn2", "deep"} {
			recipe, err := RecipeByName(rname)
			if err != nil {
				t.Fatal(err)
			}
			for _, registered := range []bool{false, true} {
				where := fmt.Sprintf("%s/%s/registered=%v", name, rname, registered)
				res, err := Synthesize(g, lib, Options{Recipe: recipe, RegisterOutputs: registered})
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				nl := res.Netlist
				fan := reflect.ValueOf(nl).Elem().FieldByName("fan")
				if fan.FieldByName("sinkStart").Len() != nl.NumNets()+1 {
					t.Fatalf("%s: the mapper returned the netlist without its fanout index", where)
				}
				for _, list := range []string{"sinks", "pos"} {
					if f := fan.FieldByName(list); f.Len() != f.Cap() {
						t.Errorf("%s: index %s len %d, cap %d", where, list, f.Len(), f.Cap())
					}
				}
				if err := nl.Check(); err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				pins := 0
				for i := range nl.Cells {
					pins += len(nl.Ins(netlist.CellID(i)))
				}
				sinks, pos := 0, 0
				for i := range nl.Nets {
					for _, s := range nl.Sinks(netlist.NetID(i)) {
						if nl.Ins(s.Cell)[s.Pin] != netlist.NetID(i) {
							t.Fatalf("%s: net %s lists pin %d of cell %s, which reads another net", where, nl.NetName(netlist.NetID(i)), s.Pin, nl.CellName(s.Cell))
						}
					}
					for _, po := range nl.NetPOs(netlist.NetID(i)) {
						if nl.POs[po].Net != netlist.NetID(i) {
							t.Fatalf("%s: net %d lists output %d, which reads another net", where, i, po)
						}
					}
					sinks, pos = sinks+len(nl.Sinks(netlist.NetID(i))), pos+len(nl.NetPOs(netlist.NetID(i)))
				}
				if sinks != pins || pos != len(nl.POs) {
					t.Errorf("%s: nets hold %d sinks and %d outputs, cells %d pins, netlist %d outputs", where, sinks, pos, pins, len(nl.POs))
				}
			}
		}
	}
}

// TestNodeImplPacksInto24Bytes: the mapper keeps a record per variable
// and polarity, and refers to the matched cut by its offset in the
// node's cut list instead of copying the cut into it.
func TestNodeImplPacksInto24Bytes(t *testing.T) {
	if size := unsafe.Sizeof(nodeImpl{}); size > 24 {
		t.Fatalf("nodeImpl is %d bytes, want at most 24", size)
	}
}

// TestNetlistRecordsPack: a mapped netlist holds one cell record per
// cell and one net record per net, and neither carries a name, a pin
// list or a sink list of its own.
func TestNetlistRecordsPack(t *testing.T) {
	if c, n := unsafe.Sizeof(netlist.Cell{}), unsafe.Sizeof(netlist.Net{}); c != 16 || n != 8 {
		t.Fatalf("netlist.Cell is %d bytes and netlist.Net %d, want 16 and 8", c, n)
	}
}

// TestPassResultReuseMatchesFresh: Synthesize sweeps every intermediate
// pass result into one of the run's two recycled pass graphs, which
// must change nothing. At 1, 2 and 8 workers it gives the optimized
// graph (fingerprint and AIGER text), the netlist and the probe
// counters of chaining RunPass — a fresh graph and scratch per pass —
// and MapToCells, and it leaves its input graph untouched.
func TestPassResultReuseMatchesFresh(t *testing.T) {
	lib := techlib.Default14nm()
	recipe, err := RecipeByName("resyn2")
	if err != nil {
		t.Fatal(err)
	}
	aiger := func(g *aig.Graph) string {
		var buf bytes.Buffer
		if err := g.WriteASCII(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	for _, d := range []struct {
		name  string
		scale float64
	}{{"int2float", 0.5}, {"priority", 1}, {"adder", 2}} {
		g := designs.MustBenchmark(d.name, d.scale)
		inFP := g.Fingerprint()

		probe := perf.NewProbe(perf.DefaultProbeConfig())
		want := g
		for _, p := range recipe.Passes {
			if want, err = RunPass(want, p, probe, 1); err != nil {
				t.Fatal(err)
			}
		}
		wantNL, err := MapToCells(want, lib, false, probe)
		if err != nil {
			t.Fatal(err)
		}
		wantCounters := probe.Counters()

		for _, w := range []int{1, 2, 8} {
			probe := perf.NewProbe(perf.DefaultProbeConfig())
			res, err := Synthesize(g, lib, Options{Recipe: recipe, StageConfig: par.StageConfig{Workers: w, Probe: probe}})
			if err != nil {
				t.Fatal(err)
			}
			if res.Optimized.Fingerprint() != want.Fingerprint() || aiger(res.Optimized) != aiger(want) {
				t.Fatalf("%s workers=%d: optimized graph differs from the fresh chain", d.name, w)
			}
			if res.Netlist.Fingerprint() != wantNL.Fingerprint() {
				t.Fatalf("%s workers=%d: netlist differs from the fresh chain", d.name, w)
			}
			if c := probe.Counters(); c != wantCounters {
				t.Fatalf("%s workers=%d: counters %+v, want %+v", d.name, w, c, wantCounters)
			}
			if g.Fingerprint() != inFP {
				t.Fatalf("%s workers=%d: Synthesize changed its input graph", d.name, w)
			}
		}
	}
}

// storageOf returns the backing array of the slice field named field of
// the struct v points to (0 when it has none yet).
func storageOf(v any, field string) uintptr {
	f := reflect.ValueOf(v).Elem().FieldByName(field)
	if f.Cap() == 0 {
		return 0
	}
	return f.Pointer()
}

// runStorage lists the storage a run owns, each buffer under a name
// that stays the same through the run: every goroutine's literal map
// and hash table, the merge graph, the pass graphs, the cut-list array,
// and every chunk of the shard arenas and cut slabs (a chunk keeps its
// name once it exists; a slab may gain chunks, never lose one).
func runStorage(rs *runScratch) map[string]uintptr {
	out := map[string]uintptr{"cuts": storageOf(rs, "cuts")}
	for w := range rs.lits {
		out[fmt.Sprint("lits.val ", w)] = storageOf(&rs.lits[w], "val")
		out[fmt.Sprint("lits.epoch ", w)] = storageOf(&rs.lits[w], "epoch")
		out[fmt.Sprint("table ", w)] = storageOf(&rs.tables[w], "strash")
	}
	graphs := map[string]*aig.Graph{"merge": rs.tmp, "pass 0": rs.passes[0], "pass 1": rs.passes[1]}
	for name, g := range graphs {
		if g != nil {
			out[name+" nodes"] = storageOf(g, "nodes")
		}
	}
	slabs := map[string]reflect.Value{}
	for i := range rs.shards {
		arena := reflect.ValueOf(&rs.shards[i].arena).Elem()
		slabs[fmt.Sprint("arena nodes ", i)] = arena.FieldByName("nodes")
		slabs[fmt.Sprint("arena inputs ", i)] = arena.FieldByName("inputs")
		slabs[fmt.Sprint("cut lists ", i)] = reflect.ValueOf(&rs.shards[i].cut.lists).Elem()
	}
	for name, slab := range slabs {
		all := slab.FieldByName("all")
		for c := range all.Len() {
			out[fmt.Sprintf("%s chunk at %x", name, all.Index(c).Pointer())] = all.Index(c).Pointer()
		}
	}
	return out
}

// TestRunStorageSizedOnce: a run sizes its literal maps, hash tables,
// merge graph and pass graphs once, before it fills them, and its
// arenas and slabs drop no chunk, so no buffer of a run is allocated a
// second time: each is where it was after every later pass, the tables
// and the merge graph have the room reserve and forPartitions gave
// them, no shard graph outgrew the room its arena opened for it, and
// only the goroutines a region can run have a literal map and table.
// Before the buffers were sized for the recipe's heaviest pass, the
// first rewrite regrew the merge graph, the tables and the shard graphs
// that balance had sized; the merge estimate of mult+1 ANDs per AND
// failed on int2float, and tables sized without headroom on log2.
func TestRunStorageSizedOnce(t *testing.T) {
	recipe, err := RecipeByName("resyn2")
	if err != nil {
		t.Fatal(err)
	}
	inputs := []struct {
		name  string
		scale float64
	}{{"adder", 2}, {"priority", 1}, {"bar", 1}, {"int2float", 1}, {"log2", 1}, {"multiplier", 0.3}, {"sin", 0.3}, {"dec", 1}}
	for _, d := range inputs {
		g := designs.MustBenchmark(d.name, d.scale)
		for _, workers := range []int{1, 2, 8} {
			where := fmt.Sprintf("%s.x%g workers=%d", d.name, d.scale, workers)
			rs := new(runScratch)
			rs.reserve(g, recipe.Passes)
			seen := runStorage(rs)
			cur, most := g, 0
			for i, p := range recipe.Passes {
				rs.dst = nil
				if i < len(recipe.Passes)-1 {
					rs.dst = rs.passes[i%2]
				}
				cp := cur.PartitionCones(PartitionGrain)
				if cur, _, err = runPass(cur, p, nil, par.Fixed(workers), rs); err != nil {
					t.Fatal(err)
				}
				now := runStorage(rs)
				for name, was := range seen {
					if was != 0 && now[name] != was {
						t.Fatalf("%s: pass %d (%v) allocated %s a second time", where, i, p, name)
					}
				}
				for name, ptr := range now {
					if seen[name] == 0 {
						seen[name] = ptr
					}
				}
				for pi, part := range cp.Parts {
					most = max(most, len(part.Nodes))
					sg := rs.parts[pi]
					if room := 1 + sg.NumInputs() + (1+tries[p])*len(part.Nodes)*3/2; sg.NumVars() > room {
						t.Fatalf("%s: pass %d partition %d grew to %d nodes past its room for %d", where, i, pi, sg.NumVars(), room)
					}
				}
			}
			for w := min(workers, par.ProbeShards); w < par.ProbeShards; w++ {
				if cap(rs.lits[w].val) != 0 || reflect.ValueOf(&rs.tables[w]).Elem().FieldByName("strash").Cap() != 0 {
					t.Errorf("%s: goroutine %d of %d has a literal map or table", where, w, workers)
				}
			}
			for w := range min(workers, par.ProbeShards) {
				table := reflect.ValueOf(&rs.tables[w]).Elem().FieldByName("strash").Cap()
				want := 2 * (rs.mult * most * 3 / 2)
				if w == 0 {
					want = 2 * rs.mergeAnds
				}
				if table != 0 && table != want {
					t.Errorf("%s: goroutine %d's table holds %d slots, reserved %d", where, w, table, want)
				}
			}
			if rs.tmp != nil {
				if n := reflect.ValueOf(rs.tmp).Elem().FieldByName("nodes").Cap(); n != 1+g.NumInputs()+rs.mergeAnds {
					t.Errorf("%s: the merge graph holds %d nodes, reserved %d", where, n, 1+g.NumInputs()+rs.mergeAnds)
				}
			}
		}
	}
}
