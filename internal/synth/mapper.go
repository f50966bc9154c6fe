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

// MapObjective selects the technology mapper's cost function.
type MapObjective int

// Mapping objectives: delay-oriented covering minimizes worst arrival
// (the default, matching timing-driven flows); area-oriented covering
// minimizes area flow with arrival as tie-break.
const (
	MapDelay MapObjective = iota
	MapArea
)

// nodeImpl is the chosen realization of one (node, polarity) pair.
type nodeImpl struct {
	valid   bool
	fromInv bool // realized as inverter of the opposite polarity
	match   techlib.Match
	cut     Cut
	polMask uint8 // bit i set: leaf i is consumed complemented
	arrival float64
	// areaFlow estimates the per-use area of this realization
	// (cell area plus fanout-shared leaf area flows).
	areaFlow float64
}

// Mapper holds mapping state for one run.
type mapper struct {
	g         *aig.Graph
	lib       *techlib.Library
	probe     *perf.Probe
	objective MapObjective

	inv    *techlib.Cell
	impls  [2][]nodeImpl // [polarity][var]; polarity 0 = positive
	cuts   *cutEnum
	fanout []int32
	tts    *ttScratch
}

// MapToCells covers the AIG with standard cells from lib and returns
// the mapped netlist. When registerOutputs is set, every primary
// output is registered behind a DFF clocked by an added "clk" input.
func MapToCells(g *aig.Graph, lib *techlib.Library, registerOutputs bool, probe *perf.Probe) (*netlist.Netlist, error) {
	return MapToCellsObjective(g, lib, registerOutputs, MapDelay, probe)
}

// MapToCellsObjective is MapToCells with an explicit covering
// objective.
func MapToCellsObjective(g *aig.Graph, lib *techlib.Library, registerOutputs bool, obj MapObjective, probe *perf.Probe) (*netlist.Netlist, error) {
	return mapToCells(g, lib, registerOutputs, obj, probe, par.Default(), new(ttScratch))
}

// mapToCells is the shared mapping path with an explicit worker pool
// (used by cut enumeration; covering itself is sequential) and the
// caller's truth-table scratch.
func mapToCells(g *aig.Graph, lib *techlib.Library, registerOutputs bool, obj MapObjective, probe *perf.Probe, pool *par.Pool, tts *ttScratch) (*netlist.Netlist, error) {
	inv := lib.Cell("INV_X1")
	if inv == nil {
		return nil, fmt.Errorf("synth: library %s lacks an INV_X1 cell", lib.Name)
	}
	m := &mapper{g: g, lib: lib, probe: probe, inv: inv, objective: obj, tts: tts}
	m.cuts = newCutEnum(g, 3, 8, probe, pool)
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

// areaFlowOf returns the area flow of (var, polarity), adding an
// inverter when the polarity must be derived.
func (m *mapper) areaFlowOf(v int, neg bool) float64 {
	pol := 0
	if neg {
		pol = 1
	}
	if m.impls[pol][v].valid {
		return m.impls[pol][v].areaFlow
	}
	other := m.impls[1-pol][v]
	if !other.valid {
		return 0
	}
	return other.areaFlow + m.inv.Area
}

// computeImpls fills impls in topological order.
func (m *mapper) computeImpls() {
	g := m.g
	// Constant node: both polarities free at time zero.
	m.impls[0][0] = nodeImpl{valid: true}
	m.impls[1][0] = nodeImpl{valid: true}
	for _, v := range g.InputVars() {
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
	bestCost := [2]float64{1e30, 1e30}
	var best [2]nodeImpl

	load := nominalPinCap * float64(m.fanout[v])
	if load <= 0 {
		load = nominalPinCap
	}

	for _, cut := range m.cuts.Cuts(v) {
		n := len(cut.Leaves)
		if n < 1 || n > 3 {
			continue
		}
		if n == 1 && int(cut.Leaves[0]) == v {
			continue // trivial cut
		}
		tt := cutTT(m.g, v, cut.Leaves, m.probe, m.tts)
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
				for _, match := range m.lib.MatchTT(want, n) {
					m.probe.Ops(20)
					m.probe.FPScalar(8) // table interpolation
					arr := m.matchArrival(match, cut, pm, load)
					af := match.Cell.Area
					for i, leaf := range cut.Leaves {
						leafShare := float64(m.fanout[leaf])
						if leafShare < 1 {
							leafShare = 1
						}
						af += m.areaFlowOf(int(leaf), pm>>uint(i)&1 == 1) / leafShare
					}
					cost := arr
					if m.objective == MapArea {
						// Area flow first, arrival as a mild tie-break.
						cost = af + arr*1e-3
					}
					better := cost < bestCost[pol]
					m.probe.Branch(brMapChoice, better)
					if better {
						bestCost[pol] = cost
						best[pol] = nodeImpl{
							valid:    true,
							match:    match,
							cut:      cut,
							polMask:  pm,
							arrival:  arr,
							areaFlow: af,
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
			valid:    true,
			fromInv:  true,
			arrival:  best[1-pol].arrival + m.invDelay(),
			areaFlow: best[1-pol].areaFlow + m.inv.Area,
		}
	}
	m.impls[0][v] = best[0]
	m.impls[1][v] = best[1]
}

// matchArrival returns the output arrival time of realizing a match:
// the worst leaf arrival (in its required polarity) plus the matched
// arc delay at the estimated load.
func (m *mapper) matchArrival(match techlib.Match, cut Cut, pm uint8, load float64) float64 {
	worst := 0.0
	for i, leaf := range cut.Leaves {
		neg := pm>>uint(i)&1 == 1
		arr := m.arrivalOf(int(leaf), neg)
		pin := match.Cell.Inputs[match.Perm[i]].Name
		arc := match.Cell.ArcFrom(pin)
		d := 0.0
		if arc != nil {
			d = arc.Delay.Lookup(nominalSlew, load)
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

// extract instantiates the chosen cover from the primary outputs.
func (m *mapper) extract(registerOutputs bool) (*netlist.Netlist, error) {
	g := m.g
	nl := netlist.New(g.Name, m.lib)

	piNet := make([]netlist.NetID, g.NumVars()) // by input variable
	for i, v := range g.InputVars() {
		name := g.InputName(i)
		if name == "" {
			name = fmt.Sprintf("pi%d", i)
		}
		piNet[v] = nl.AddPI(name)
	}

	// memo[pol][v] is the net emitted for (v, polarity), NoNet until
	// then.
	var memo [2][]netlist.NetID
	for pol := range memo {
		memo[pol] = make([]netlist.NetID, g.NumVars())
		for v := range memo[pol] {
			memo[pol][v] = netlist.NoNet
		}
	}
	cellCount := 0
	newCell := func(typ *techlib.Cell, ins []netlist.NetID) netlist.NetID {
		out := nl.AddNet(fmt.Sprintf("n%d", nl.NumNets()))
		nl.MustAddCell(fmt.Sprintf("u%d", cellCount), typ, ins, out)
		cellCount++
		return out
	}

	// constNet lazily builds constant-0/1 nets from the first PI:
	// AND2(a, !a) = 0, OR2(a, !a) = 1.
	var constNets [2]netlist.NetID
	constNets[0], constNets[1] = netlist.NoNet, netlist.NoNet
	makeConst := func(one bool) (netlist.NetID, error) {
		idx := 0
		if one {
			idx = 1
		}
		if constNets[idx] != netlist.NoNet {
			return constNets[idx], nil
		}
		if len(g.InputVars()) == 0 {
			return netlist.NoNet, fmt.Errorf("synth: cannot tie constants in a design with no inputs")
		}
		a := piNet[g.InputVars()[0]]
		an := newCell(m.inv, []netlist.NetID{a})
		typ := m.lib.Cell("AND2_X1")
		if one {
			typ = m.lib.Cell("OR2_X1")
		}
		if typ == nil {
			return netlist.NoNet, fmt.Errorf("synth: library lacks AND2/OR2 tie cells")
		}
		constNets[idx] = newCell(typ, []netlist.NetID{a, an})
		return constNets[idx], nil
	}

	var emit func(v int, neg bool) (netlist.NetID, error)
	emit = func(v int, neg bool) (netlist.NetID, error) {
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
				net = newCell(m.inv, []netlist.NetID{piNet[v]})
			}
			memo[pol][v] = net
			return net, nil
		}
		impl := m.impls[pol][v]
		if !impl.valid {
			return netlist.NoNet, fmt.Errorf("synth: node %d has no %v implementation", v, neg)
		}
		if impl.fromInv {
			src, err := emit(v, !neg)
			if err != nil {
				return netlist.NoNet, err
			}
			net = newCell(m.inv, []netlist.NetID{src})
			memo[pol][v] = net
			return net, nil
		}
		ins := make([]netlist.NetID, impl.match.Cell.NumInputs())
		for i, leaf := range impl.cut.Leaves {
			leafNeg := impl.polMask>>uint(i)&1 == 1
			src, err := emit(int(leaf), leafNeg)
			if err != nil {
				return netlist.NoNet, err
			}
			ins[impl.match.Perm[i]] = src
		}
		net = newCell(impl.match.Cell, ins)
		memo[pol][v] = net
		return net, nil
	}

	var clkNet netlist.NetID = netlist.NoNet
	dff := m.lib.Cell("DFF_X1")
	if registerOutputs {
		if dff == nil {
			return nil, fmt.Errorf("synth: library lacks DFF_X1 for registered outputs")
		}
		clkNet = nl.AddPI("clk")
	}

	for i, o := range g.Outputs() {
		net, err := emit(o.Var(), o.IsNeg())
		if err != nil {
			return nil, err
		}
		name := g.OutputName(i)
		if name == "" {
			name = fmt.Sprintf("po%d", i)
		}
		if registerOutputs {
			q := newCell(dff, []netlist.NetID{net, clkNet})
			nl.AddPO(name, q)
		} else {
			nl.AddPO(name, net)
		}
	}
	return nl, nil
}
