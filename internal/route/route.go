// Package route is the global routing engine: a grid-graph router
// using A* maze search under a negotiated-congestion cost scheme
// (PathFinder-style history costs with rip-up-and-reroute iterations).
//
// Routing is the paper's best-scaling EDA job (Fig. 2d, Fig. 3): nets
// confined to disjoint grid tiles can route concurrently with no
// shared state. The engine models that structure rather than running
// it: connections are scheduled by tile and routed serially, one A*
// search over the whole grid each, and the tile statistics feed the
// machine model's parallelism profile, which is what caps small-design
// speedup in Fig. 3. Its data-dependent search branches (frontier
// comparisons, design-rule/capacity checks, rip-up decisions) are also
// the source of routing's elevated branch-miss rate in Fig. 2a.
package route

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"edacloud/internal/hash"
	"edacloud/internal/netlist"
	"edacloud/internal/par"
	"edacloud/internal/perf"
	"edacloud/internal/place"
)

// Options configures Route. Probe receives performance events; nil
// runs uninstrumented. The router is serial, so Workers is not read.
type Options struct {
	par.StageConfig
}

// Result summarizes a routing run.
type Result struct {
	GridW, GridH int
	// Wirelength is the total routed length in grid edges.
	Wirelength int
	// Overflow is the number of edge-capacity violations remaining.
	Overflow int
	// Iterations is the number of rip-up-and-reroute rounds executed.
	Iterations int
	// Connections is the number of two-pin connections routed.
	Connections int
	// TileLocalFraction is the fraction of connections whose bounding
	// box fits inside one scheduling tile (the parallelizable part).
	TileLocalFraction float64
	// BusyTiles is the number of distinct tiles owning local work (the
	// concurrency limit for the machine model).
	BusyTiles int
	// FailedConnections counts connections with unreachable endpoints
	// (should be zero on sane grids).
	FailedConnections int
}

// Fingerprint returns the routing result's canonical content hash.
func (r *Result) Fingerprint() uint64 {
	h := hash.New()
	h.Word(1) // the presence marker the flow used to feed first; kept so routing hashes do not move
	for _, v := range []int{r.GridW, r.GridH, r.Wirelength, r.Overflow, r.Iterations, r.Connections} {
		h.Int(v)
	}
	h.F64(r.TileLocalFraction)
	h.Int(r.BusyTiles)
	h.Int(r.FailedConnections)
	return uint64(h)
}

// ApproxBytes estimates the result's in-memory footprint — the unit a
// byte-budgeted artifact cache accounts it in.
func (r *Result) ApproxBytes() int64 { return 96 }

// connection is one two-pin route: driver gcell to sink gcell, never
// within one gcell. Its path keeps its storage across rip-ups and
// reroutes; an empty path is an unrouted connection.
type connection struct {
	sx, sy int16
	tx, ty int16
	tile   int32 // owning tile, -1 when the bbox crosses tiles
	path   []int32
}

// grid is the shared routing fabric state.
type grid struct {
	w, h    int
	cap     int
	usage   []int32   // per edge
	history []float64 // per edge
}

// Edge indexing: horizontal edge (x,y)->(x+1,y) occupies index
// y*(w-1)+x; vertical edge (x,y)->(x,y+1) occupies hBase + x*(h-1)+y.
func (g *grid) hEdge(x, y int) int32 { return int32(y*(g.w-1) + x) }
func (g *grid) vEdge(x, y int) int32 {
	return int32((g.h)*(g.w-1) + x*(g.h-1) + y)
}
func (g *grid) numEdges() int { return g.h*(g.w-1) + g.w*(g.h-1) }

// Hot-window probe regions. The router's resident set (the grid slice
// under search plus the frontier heap) is bounded, but every search
// also touches freshly allocated visited/parent state — compulsory
// misses that no cache size absorbs, which is why routing's miss rate
// stays flat across VM sizes in the paper's Fig. 2b.
const (
	rgGrid = 0 // edge usage/history records
	rgHeap = 1 // frontier heap nodes
)

// Branch sites.
const (
	brNeighborImprove = uint64(0x21)
	brCapacityCheck   = uint64(0x22)
	brRipupDecision   = uint64(0x23)
	brGoalCheck       = uint64(0x24)
)

// The router's settings. Route always uses them; route takes the
// gcell, capacity and round bound as parameters so tests can vary them.
const (
	// capacityFromDemand is the capacity value requesting
	// demand-calibrated track capacity.
	capacityFromDemand = -1
	// maxIters bounds the rip-up-and-reroute rounds.
	maxIters = 8
	// tileSize is the scheduling tile edge in gcells. A fixed region
	// size is what makes small designs saturate in the paper's Fig. 3:
	// a small die simply does not contain many independent routing
	// regions.
	tileSize = 8
	// historyCost is the congestion-history increment an overused edge
	// collects per rip-up-and-reroute round.
	historyCost = 1.5
)

func absInt16(v int16) int {
	if v < 0 {
		return int(-v)
	}
	return int(v)
}

// Route globally routes the placed netlist on a grid of half-row-height
// gcells with demand-calibrated track capacity. The report carries
// three phases: the initial routing pass, the rip-up-and-reroute
// negotiation rounds and the refinement pass.
func Route(nl *netlist.Netlist, pl *place.Placement, opts Options) (*Result, *perf.Report, error) {
	if nl.NumCells() == 0 {
		return nil, nil, fmt.Errorf("route: empty netlist")
	}
	if len(pl.X) != nl.NumCells() {
		return nil, nil, fmt.Errorf("route: placement has %d cells, netlist %d", len(pl.X), nl.NumCells())
	}
	res, report := route(nl, pl, opts.Probe, 0.5*pl.RowHeight, capacityFromDemand, maxIters)
	return res, report, nil
}

// route is Route with the gcell edge (in um), the per-edge track
// capacity (or capacityFromDemand) and the rip-up round bound given.
func route(nl *netlist.Netlist, pl *place.Placement, probe *perf.Probe, gcell float64, capacity, iterBound int) (*Result, *perf.Report) {
	report := &perf.Report{Job: "routing"}

	g := &grid{
		w:   max(int(pl.DieW/gcell)+2, 2),
		h:   max(int(pl.DieH/gcell)+2, 2),
		cap: capacity,
	}
	g.usage = make([]int32, g.numEdges())
	g.history = make([]float64, g.numEdges())

	conns := buildConnections(nl, pl, g, gcell)
	if capacity == capacityFromDemand {
		// Calibrate track capacity to the design's wire demand, as a
		// floorplanner sizing routing resources would: mildly above the
		// average per-edge load, so congestion concentrates in genuine
		// hotspots instead of saturating the whole fabric.
		manhattan := 0
		for i := range conns {
			manhattan += absInt16(conns[i].sx-conns[i].tx) + absInt16(conns[i].sy-conns[i].ty)
		}
		g.cap = int(1.6*float64(manhattan)/float64(g.numEdges())) + 8
	}
	res := &Result{GridW: g.w, GridH: g.h, Connections: len(conns)}

	// Connections route tile by tile in tile order, then the cross-tile
	// ones (tile -1, last as an unsigned key); each group keeps net
	// order. The tile statistics feed the machine model's parallelism
	// profile.
	order := make([]*connection, len(conns))
	for i := range conns {
		order[i] = &conns[i]
	}
	slices.SortStableFunc(order, func(a, b *connection) int { return cmp.Compare(uint32(a.tile), uint32(b.tile)) })
	crossTile := 0
	for i, c := range order {
		switch {
		case c.tile < 0:
			crossTile++
		case i == 0 || order[i-1].tile != c.tile:
			res.BusyTiles++
		}
	}
	if len(conns) > 0 {
		res.TileLocalFraction = 1 - float64(crossTile)/float64(len(conns))
	}

	// One search scratch serves every search of the run.
	scratch := &searchScratch{}
	routeAll := func() {
		for _, c := range order {
			routeConnection(g, c, probe, scratch)
		}
	}

	routeAll()
	pf := 0.88 + float64(0.11*res.TileLocalFraction)
	report.AddPhase(probe.TakePhase("route-initial", pf, max(res.BusyTiles, 1)))

	// Negotiated congestion: raise history on overused edges, rip up
	// offenders, reroute.
	iters := 0
	var overused []int32
	bad := make([]bool, g.numEdges()) // marks this round's overused edges
	var rip []*connection
	for ; iters < iterBound; iters++ {
		overused = g.appendOverused(overused[:0])
		if len(overused) == 0 {
			break
		}
		for _, e := range overused {
			g.history[e] += historyCost
			probe.StoreHot(rgGrid, uint64(e))
			bad[e] = true
		}
		rip = rip[:0]
		for i := range conns {
			c := &conns[i]
			hit := false
			for _, e := range c.path {
				probe.LoadHot(rgGrid, uint64(e))
				probe.LoopBranches(2)
				if bad[e] {
					hit = true
					break
				}
			}
			probe.Branch(brRipupDecision, hit)
			if hit {
				rip = append(rip, c)
			}
		}
		for _, e := range overused {
			bad[e] = false
		}
		for _, c := range rip {
			g.unroute(c)
		}
		for _, c := range rip {
			routeConnection(g, c, probe, scratch)
		}
	}
	res.Iterations = iters
	// Modelled rip-up rounds stay region-parallel but synchronize on the shared
	// congestion history between rounds; scaling is somewhat poorer
	// than the initial pass.
	report.AddPhase(probe.TakePhase("rip-up-reroute", 0.60+float64(0.35*res.TileLocalFraction), max(res.BusyTiles/2, 1)))

	// Refinement: with congestion negotiated, reroute every connection
	// once against the final cost landscape (the wire/timing cleanup
	// pass of production routers). The model again treats tile-local
	// work as fully parallel.
	for i := range conns {
		g.unroute(&conns[i])
	}
	routeAll()
	report.AddPhase(probe.TakePhase("refine", pf, max(res.BusyTiles, 1)))

	for i := range conns {
		if len(conns[i].path) == 0 {
			res.FailedConnections++
		}
		res.Wirelength += len(conns[i].path)
	}
	res.Overflow = len(g.appendOverused(overused[:0]))
	return res, report
}

// buildConnections decomposes every net into driver-to-sink two-pin
// connections with tile assignment, on gcells of edge gcell um.
func buildConnections(nl *netlist.Netlist, pl *place.Placement, g *grid, gcell float64) []connection {
	gcellOf := func(x, y float64) (int16, int16) {
		gx := int16(x / gcell)
		gy := int16(y / gcell)
		if int(gx) >= g.w {
			gx = int16(g.w - 1)
		}
		if int(gy) >= g.h {
			gy = int16(g.h - 1)
		}
		return gx, gy
	}
	tileOf := func(sx, sy, tx, ty int16) int32 {
		t0x, t0y := sx/tileSize, sy/tileSize
		t1x, t1y := tx/tileSize, ty/tileSize
		if t0x != t1x || t0y != t1y {
			return -1
		}
		tilesPerRow := int32(g.w/tileSize + 1)
		return int32(t0y)*tilesPerRow + int32(t0x)
	}

	type pt struct{ x, y int16 }
	terminals := 0
	for id := range nl.Nets {
		net := &nl.Nets[id]
		if net.Driver != netlist.NoCell || net.DriverPI >= 0 {
			terminals += len(nl.Sinks(netlist.NetID(id))) + len(nl.NetPOs(netlist.NetID(id)))
		}
	}
	conns := make([]connection, 0, terminals)
	var sinks, tree []pt // reused across nets
	for id := range nl.Nets {
		net := &nl.Nets[id]
		var root pt
		switch {
		case net.Driver != netlist.NoCell:
			root.x, root.y = gcellOf(pl.X[net.Driver], pl.Y[net.Driver])
		case net.DriverPI >= 0:
			root.x, root.y = gcellOf(pl.PIx[net.DriverPI], pl.PIy[net.DriverPI])
		default:
			continue
		}
		sinks = sinks[:0]
		for _, s := range nl.Sinks(netlist.NetID(id)) {
			x, y := gcellOf(pl.X[s.Cell], pl.Y[s.Cell])
			sinks = append(sinks, pt{x, y})
		}
		for _, po := range nl.NetPOs(netlist.NetID(id)) {
			x, y := gcellOf(pl.POx[po], pl.POy[po])
			sinks = append(sinks, pt{x, y})
		}
		// Prim-style topology: attach each remaining sink to its
		// nearest already-connected terminal, approximating the Steiner
		// tree a real global router builds instead of a driver star.
		tree = append(tree[:0], root)
		for len(sinks) > 0 {
			bestS, bestT, bestD := -1, -1, 1<<30
			for si, s := range sinks {
				for ti, t := range tree {
					d := absInt16(s.x-t.x) + absInt16(s.y-t.y)
					if d < bestD {
						bestD, bestS, bestT = d, si, ti
					}
				}
			}
			s, t := sinks[bestS], tree[bestT]
			sinks = append(sinks[:bestS], sinks[bestS+1:]...)
			tree = append(tree, s)
			if s == t {
				continue // same gcell: no global routing needed
			}
			conns = append(conns, connection{
				sx: t.x, sy: t.y, tx: s.x, ty: s.y,
				tile: tileOf(t.x, t.y, s.x, s.y),
			})
		}
	}
	return conns
}

// pqItem is an A* frontier entry.
type pqItem struct {
	cost, est float64
	x, y      int16
}

// frontier is the A* open list: a binary min-heap on est. push and pop
// are container/heap's Push and Pop (append then sift up; swap root
// with last, sift down, drop last) with the same comparisons in the
// same order, typed so that a push boxes nothing. The order matters:
// entries with equal est are the common case on a unit grid, which of
// them leaves first decides the path found, and the simulated counters
// and goldens are pinned to the paths this sift order yields.
type frontier []pqItem

func (q *frontier) push(it pqItem) {
	h := append(*q, it)
	*q = h
	j := len(h) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].est < h[i].est) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (q *frontier) pop() pqItem {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && h[r].est < h[j].est {
			j = r
		}
		if !(h[j].est < h[i].est) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*q = h[:n]
	return h[n]
}

// searchScratch is the per-search state of the maze router — tentative
// distances, parent links and the frontier — reused by every search of
// a routing run. It is sized to the grid by the first search; begin
// resets it by bumping epoch: a cell whose stamp is not the current
// epoch has not been reached by this search and reads as distance +Inf.
type searchScratch struct {
	dist     []float64
	from     []int32 // parent cell, -1 at the source; valid where stamped
	stamp    []uint32
	epoch    uint32
	frontier frontier
	path     []int32 // the found path's edges, target to source
}

// begin starts a new search over n cells.
func (s *searchScratch) begin(n int) {
	if len(s.stamp) < n {
		s.dist = make([]float64, n)
		s.from = make([]int32, n)
		s.stamp = make([]uint32, n)
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: stamps from 2^32 searches ago would read as current
		clear(s.stamp)
		s.epoch = 1
	}
	s.frontier = s.frontier[:0]
}

// distAt returns the tentative distance of cell i, +Inf if unreached.
func (s *searchScratch) distAt(i int32) float64 {
	if s.stamp[i] != s.epoch {
		return math.Inf(1)
	}
	return s.dist[i]
}

func (s *searchScratch) reach(i int32, dist float64, from int32) {
	s.stamp[i] = s.epoch
	s.dist[i] = dist
	s.from[i] = from
}

// routeConnection is the A* maze router under the negotiated
// congestion cost function, searching the whole grid.
func routeConnection(g *grid, c *connection, probe *perf.Probe, s *searchScratch) {
	w := g.w
	idx := func(x, y int16) int32 { return int32(int(y)*w + int(x)) }
	s.begin(w * g.h)

	edgeCost := func(e int32) float64 {
		probe.LoadHot(rgGrid, uint64(e))
		u := g.usage[e]
		over := u >= int32(g.cap)
		probe.Branch(brCapacityCheck, over)
		cost := 1.0 + g.history[e]
		if over {
			cost += float64(4 * float64(u-int32(g.cap)+1))
		}
		return cost
	}
	heuristic := func(x, y int16) float64 {
		dx := float64(x - c.tx)
		dy := float64(y - c.ty)
		return math.Abs(dx) + math.Abs(dy)
	}

	s.frontier.push(pqItem{cost: 0, est: heuristic(c.sx, c.sy), x: c.sx, y: c.sy})
	s.reach(idx(c.sx, c.sy), 0, -1)
	found := false
	for len(s.frontier) > 0 {
		it := s.frontier.pop()
		probe.LoadHot(rgHeap, uint64(len(s.frontier)))
		// Freshly touched visited/parent entries: compulsory misses.
		probe.LoadCold(2)
		// Per-node bookkeeping of a production 3D router: layer
		// assignment, via costing and design-rule legality per visit.
		probe.Ops(140)
		probe.LoopBranches(9)
		goal := it.x == c.tx && it.y == c.ty
		probe.Branch(brGoalCheck, goal)
		if goal {
			found = true
			break
		}
		if it.cost > s.distAt(idx(it.x, it.y)) {
			continue // stale entry
		}
		type nb struct {
			x, y int16
			e    int32
		}
		var nbs [4]nb
		n := 0
		if it.x > 0 {
			nbs[n] = nb{it.x - 1, it.y, g.hEdge(int(it.x)-1, int(it.y))}
			n++
		}
		if int(it.x) < w-1 {
			nbs[n] = nb{it.x + 1, it.y, g.hEdge(int(it.x), int(it.y))}
			n++
		}
		if it.y > 0 {
			nbs[n] = nb{it.x, it.y - 1, g.vEdge(int(it.x), int(it.y)-1)}
			n++
		}
		if int(it.y) < g.h-1 {
			nbs[n] = nb{it.x, it.y + 1, g.vEdge(int(it.x), int(it.y))}
			n++
		}
		for k := 0; k < n; k++ {
			nbk := nbs[k]
			cand := it.cost + edgeCost(nbk.e)
			di := idx(nbk.x, nbk.y)
			better := cand < s.distAt(di)
			probe.Branch(brNeighborImprove, better)
			if !better {
				continue
			}
			s.reach(di, cand, idx(it.x, it.y))
			s.frontier.push(pqItem{cost: cand, est: cand + heuristic(nbk.x, nbk.y), x: nbk.x, y: nbk.y})
			probe.StoreHot(rgHeap, uint64(len(s.frontier)))
		}
	}
	if !found {
		c.path = c.path[:0]
		return
	}
	// Trace back the path, collecting edges and bumping usage. Every
	// cell on it was reached by this search, so from is valid there.
	path := s.path[:0]
	cur := idx(c.tx, c.ty)
	for s.from[cur] >= 0 {
		prev := s.from[cur]
		cx, cy := int(cur)%w, int(cur)/w
		px, py := int(prev)%w, int(prev)/w
		var e int32
		switch {
		case cx == px+1:
			e = g.hEdge(px, py)
		case cx == px-1:
			e = g.hEdge(cx, cy)
		case cy == py+1:
			e = g.vEdge(px, py)
		default:
			e = g.vEdge(cx, cy)
		}
		path = append(path, e)
		g.usage[e]++
		probe.StoreHot(rgGrid, uint64(e))
		cur = prev
	}
	s.path = path
	// The connection copies the path into its own storage when that
	// holds it, else into new storage of exactly the path's length.
	if cap(c.path) < len(path) {
		c.path = make([]int32, len(path))
	}
	c.path = c.path[:len(path)]
	copy(c.path, path)
}

// unroute removes a connection's path from the grid usage, keeping its
// storage for the next search.
func (g *grid) unroute(c *connection) {
	for _, e := range c.path {
		g.usage[e]--
	}
	c.path = c.path[:0]
}

// appendOverused appends the edges above capacity to out, in edge order.
func (g *grid) appendOverused(out []int32) []int32 {
	for e, u := range g.usage {
		if u > int32(g.cap) {
			out = append(out, int32(e))
		}
	}
	return out
}
