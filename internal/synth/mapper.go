package synth

import (
	"fmt"

	"edacloud/internal/aig"
	"edacloud/internal/netlist"
	"edacloud/internal/par"
	"edacloud/internal/perf"
	"edacloud/internal/techlib"
)

// The technology mapper covers the optimized AIG with standard cells
// using 3-feasible cuts and exact Boolean matching (with input
// permutations and per-leaf polarity adjustment). Both output
// polarities of every node are costed — inverting cells absorb edge
// complementations — and the final cover is extracted from the primary
// outputs, inserting explicit inverters only where no inverting match
// exists.

// nominal conditions for pre-placement delay estimation.
const (
	nominalSlew   = 0.02   // ns
	nominalPinCap = 0.0012 // pF per fanout pin
)

// nodeImpl is the chosen realization of one (node, polarity) pair. The
// byte-wide fields come last so that the record packs into 24 bytes.
type nodeImpl struct {
	match   *techlib.Match // an entry of the library's match index
	arrival float64
	valid   bool
	fromInv bool  // realized as inverter of the opposite polarity
	polMask uint8 // bit i set: leaf i is consumed complemented
	cut     uint8 // the matched cut's offset in its node's cut list
}

// The mapper keeps mapMaxCuts cuts of at most mapK leaves per node, then
// the trivial cut at offset mapMaxCuts*(mapK+1), which must fit cut's byte.
const mapK, mapMaxCuts = 3, 8

var _ [255 - mapMaxCuts*(mapK+1)]struct{}

// Mapper holds mapping state for one run.
type mapper struct {
	g     *aig.Graph
	lib   *techlib.Library
	probe *perf.Probe

	inv    *techlib.Cell
	impls  [2][]nodeImpl // [polarity][var]; polarity 0 = positive
	cuts   *cutEnum
	fanout []int32
	tts    *ttScratch
}

// MapToCells covers the AIG with standard cells from lib, minimizing
// the worst arrival time, and returns the mapped netlist. When
// registerOutputs is set, every primary output is registered behind a
// DFF clocked by an added "clk" input.
func MapToCells(g *aig.Graph, lib *techlib.Library, registerOutputs bool, probe *perf.Probe) (*netlist.Netlist, error) {
	return mapToCells(g, lib, registerOutputs, probe, par.Fixed(0), new(runScratch))
}

// mapToCells is the shared mapping path with an explicit worker pool
// (used by cut enumeration; covering itself is sequential) and the
// run's scratch: the cut storage and shard 0's truth-table memo.
func mapToCells(g *aig.Graph, lib *techlib.Library, registerOutputs bool, probe *perf.Probe, pool *par.Pool, rs *runScratch) (*netlist.Netlist, error) {
	inv := lib.Cell("INV_X1")
	if inv == nil {
		return nil, fmt.Errorf("synth: library %s lacks an INV_X1 cell", lib.Name)
	}
	m := &mapper{g: g, lib: lib, probe: probe, inv: inv, tts: &rs.shards[0].tts}
	m.cuts = newCutEnum(g, mapK, mapMaxCuts, probe, pool, rs)
	m.fanout = g.FanoutCounts()
	nv := g.NumVars()
	m.impls[0] = make([]nodeImpl, nv)
	m.impls[1] = make([]nodeImpl, nv)
	m.computeImpls()
	return m.extract(registerOutputs)
}

// invDelay returns the inverter arc delay under nominal conditions.
func (m *mapper) invDelay() float64 {
	return m.inv.Arcs[0].Delay.Lookup(nominalSlew, nominalPinCap)
}

// arrivalOf returns the arrival time of (var, polarity), deriving the
// missing polarity through an inverter when needed.
func (m *mapper) arrivalOf(v int, neg bool) float64 {
	pol := 0
	if neg {
		pol = 1
	}
	if m.impls[pol][v].valid {
		return m.impls[pol][v].arrival
	}
	other := m.impls[1-pol][v]
	if !other.valid {
		return 0
	}
	return other.arrival + m.invDelay()
}

// computeImpls fills impls in topological order.
func (m *mapper) computeImpls() {
	g := m.g
	// Constant node: both polarities free at time zero.
	m.impls[0][0] = nodeImpl{valid: true}
	m.impls[1][0] = nodeImpl{valid: true}
	for i := range g.NumInputs() {
		v := g.Input(i).Var()
		m.impls[0][v] = nodeImpl{valid: true}
		// Negative polarity of an input is an inverter.
		m.impls[1][v] = nodeImpl{valid: true, fromInv: true, arrival: m.invDelay()}
	}
	g.TopoAnds(func(v int, f0, f1 aig.Lit) {
		m.probe.LoadHot(rgNode, uint64(v))
		m.probe.LoadHot(rgCut, uint64(v))
		m.probe.LoopBranches(6)
		m.mapNode(v)
	})
}

// mapNode computes the best positive and negative implementations of v.
func (m *mapper) mapNode(v int) {
	bestArr := [2]float64{1e30, 1e30}
	var best [2]nodeImpl

	load := nominalPinCap * float64(m.fanout[v])
	if load <= 0 {
		load = nominalPinCap
	}

	for off, leaves := range m.cuts.Cuts(v).all() {
		n := len(leaves)
		if n < 1 || n > 3 {
			continue
		}
		if n == 1 && int(leaves[0]) == v {
			continue // trivial cut
		}
		tt := cutTT(m.g, v, leaves, m.probe, m.tts)
		// Try every leaf-polarity adjustment: complementing leaf i
		// swaps its cofactors in the table.
		for pm := uint8(0); pm < 1<<uint(n); pm++ {
			adj := tt
			for i := 0; i < n; i++ {
				if pm>>uint(i)&1 == 1 {
					adj = flipVar(adj, i)
				}
			}
			tt16 := uint16(adj & ttMask(n))
			for pol := 0; pol < 2; pol++ {
				want := tt16
				if pol == 1 {
					want = ^tt16 & uint16(ttMask(n))
				}
				matches := m.lib.MatchTT(want, n)
				for k := range matches {
					match := &matches[k]
					m.probe.Ops(20)
					m.probe.FPScalar(8) // table interpolation
					arr := m.matchArrival(match, leaves, pm, load)
					better := arr < bestArr[pol]
					m.probe.Branch(brMapChoice, better)
					if better {
						bestArr[pol] = arr
						best[pol] = nodeImpl{
							valid:   true,
							match:   match,
							cut:     uint8(off),
							polMask: pm,
							arrival: arr,
						}
					}
				}
			}
		}
	}
	// Backstop: any missing polarity is an inverter off the other one;
	// if both are missing the graph has an unmappable node, which the
	// NAND/NOR-complete library precludes for 2-leaf cuts.
	for pol := 0; pol < 2; pol++ {
		if best[pol].valid {
			continue
		}
		if !best[1-pol].valid {
			continue
		}
		best[pol] = nodeImpl{
			valid:   true,
			fromInv: true,
			arrival: best[1-pol].arrival + m.invDelay(),
		}
	}
	m.impls[0][v] = best[0]
	m.impls[1][v] = best[1]
}

// matchArrival returns the output arrival time of realizing a match
// over the cut leaves: the worst leaf arrival (in its required
// polarity) plus the matched arc delay at the estimated load.
func (m *mapper) matchArrival(match *techlib.Match, leaves []int32, pm uint8, load float64) float64 {
	worst := 0.0
	for i, leaf := range leaves {
		neg := pm>>uint(i)&1 == 1
		arr := m.arrivalOf(int(leaf), neg)
		d := 0.0
		if t := match.Delay[i]; t != nil {
			d = t.Lookup(nominalSlew, load)
		}
		if arr+d > worst {
			worst = arr + d
		}
	}
	return worst
}

// flipVar complements variable i of a truth table by swapping its
// cofactor halves.
func flipVar(tt uint64, i int) uint64 {
	m := ttVarMasks[i]
	s := uint(1) << uint(i)
	return (tt&m)>>s | (tt&^m)<<s
}

// extract instantiates the chosen cover in a walk depth-first from the
// primary outputs, adding each cell to the netlist as the walk reaches
// it: const tie cells when a constant is first read, an inverter where
// no inverting match exists, and a DFF behind each registered output.
// The netlist's nets are the primary inputs, then clk when the outputs
// are registered, then one per cell, driven by it. It builds the
// netlist's fanout index before returning it.
func (m *mapper) extract(registerOutputs bool) (*netlist.Netlist, error) {
	g := m.g
	// A cover has about one cell per AND node (0.6 to 1.8 on the
	// benchmark designs) and two to three pins per cell: reserving
	// that much spares the netlist most of its regrowth.
	hint := g.NumAnds() + g.NumOutputs() + 4
	nl := netlist.NewSized(g.Name, m.lib, netlist.Size{
		PIs:   g.NumInputs() + 1,
		POs:   g.NumOutputs(),
		Nets:  g.NumInputs() + 1 + hint,
		Cells: hint,
		Pins:  5 * hint / 2,
	})
	piNet := make([]netlist.NetID, g.NumVars()) // by input variable
	for i := range g.NumInputs() {
		name := g.InputName(i)
		if name == "" {
			name = fmt.Sprintf("pi%d", i)
		}
		piNet[g.Input(i).Var()] = nl.AddPI(name)
	}
	var clkNet netlist.NetID = netlist.NoNet
	if registerOutputs {
		clkNet = nl.AddPI("clk")
	}
	// add creates a cell of type typ on the given inputs and returns
	// the net it drives.
	add := func(typ *techlib.Cell, ins ...netlist.NetID) netlist.NetID {
		out := nl.AddNet()
		nl.MustAddCell(typ, ins, out)
		return out
	}

	// memo[pol][v] is the net built for (v, polarity), NoNet until
	// then.
	var memo [2][]netlist.NetID
	for pol := range memo {
		memo[pol] = make([]netlist.NetID, g.NumVars())
		for v := range memo[pol] {
			memo[pol][v] = netlist.NoNet
		}
	}

	// makeConst lazily ties constant-0/1 nets to the first PI:
	// AND2(a, !a) = 0, OR2(a, !a) = 1.
	constNets := [2]netlist.NetID{netlist.NoNet, netlist.NoNet}
	makeConst := func(one bool) (netlist.NetID, error) {
		idx := 0
		if one {
			idx = 1
		}
		if constNets[idx] != netlist.NoNet {
			return constNets[idx], nil
		}
		if g.NumInputs() == 0 {
			return netlist.NoNet, fmt.Errorf("synth: cannot tie constants in a design with no inputs")
		}
		a := piNet[g.Input(0).Var()]
		an := add(m.inv, a)
		typ := m.lib.Cell("AND2_X1")
		if one {
			typ = m.lib.Cell("OR2_X1")
		}
		if typ == nil {
			return netlist.NoNet, fmt.Errorf("synth: library lacks AND2/OR2 tie cells")
		}
		constNets[idx] = add(typ, a, an)
		return constNets[idx], nil
	}

	var visit func(v int, neg bool) (netlist.NetID, error)
	visit = func(v int, neg bool) (netlist.NetID, error) {
		if v == 0 {
			return makeConst(neg) // constant node: False, so neg means 1
		}
		pol := 0
		if neg {
			pol = 1
		}
		if net := memo[pol][v]; net != netlist.NoNet {
			return net, nil
		}
		m.probe.LoadHot(rgNode, uint64(v))
		m.probe.LoopBranches(4)
		var net netlist.NetID
		if g.IsInput(v) {
			if !neg {
				net = piNet[v]
			} else {
				net = add(m.inv, piNet[v])
			}
			memo[pol][v] = net
			return net, nil
		}
		impl := m.impls[pol][v]
		if !impl.valid {
			return netlist.NoNet, fmt.Errorf("synth: node %d has no %v implementation", v, neg)
		}
		if impl.fromInv {
			src, err := visit(v, !neg)
			if err != nil {
				return netlist.NoNet, err
			}
			net = add(m.inv, src)
			memo[pol][v] = net
			return net, nil
		}
		// A match has one input per cut leaf, and mapNode keeps cuts of
		// at most three leaves.
		var ins [3]netlist.NetID
		for i, leaf := range m.cuts.Cuts(v).at(int(impl.cut)) {
			leafNeg := impl.polMask>>uint(i)&1 == 1
			src, err := visit(int(leaf), leafNeg)
			if err != nil {
				return netlist.NoNet, err
			}
			ins[impl.match.Perm[i]] = src
		}
		net = add(impl.match.Cell, ins[:impl.match.Cell.NumInputs()]...)
		memo[pol][v] = net
		return net, nil
	}

	dff := m.lib.Cell("DFF_X1")
	if registerOutputs && dff == nil {
		return nil, fmt.Errorf("synth: library lacks DFF_X1 for registered outputs")
	}
	for i := range g.NumOutputs() {
		o := g.Output(i)
		net, err := visit(o.Var(), o.IsNeg())
		if err != nil {
			return nil, err
		}
		if registerOutputs {
			net = add(dff, net, clkNet)
		}
		name := g.OutputName(i)
		if name == "" {
			name = fmt.Sprintf("po%d", i)
		}
		nl.AddPO(name, net)
	}
	nl.BuildIndex()
	return nl, nil
}
