// Package place is the analytic placement engine: star-model quadratic
// wirelength minimization solved with Jacobi-preconditioned conjugate
// gradients, alternated with grid-density spreading (SimPL-style anchor
// iterations) and finished by Tetris row legalization.
//
// The engine is the source of the paper's placement characterization
// signals: conjugate-gradient vector kernels stream large float64
// arrays (AVX-eligible FP, low temporal locality — the highest cache
// miss rates in Fig. 2b and the largest vector-FP share in Fig. 2c),
// while the sparse matrix-vector products scatter-gather through the
// connectivity structure.
package place

import (
	"fmt"
	"math"
	"sort"

	"edacloud/internal/hash"
	"edacloud/internal/ints"
	"edacloud/internal/netlist"
	"edacloud/internal/par"
	"edacloud/internal/perf"
)

// Options configures Place.
type Options struct {
	// StageConfig supplies the shared execution knobs: Workers bounds
	// the worker pool for the parallel CG matrix-vector rows (0 means
	// GOMAXPROCS; results are identical for every value), and Probe
	// receives performance events (nil runs uninstrumented).
	par.StageConfig
}

// Die utilization, row height (um), anchor/spread rounds and the
// conjugate-gradient iteration cap per solve.
const (
	targetUtil  = 0.70
	rowHeight   = 2.0
	spreadIters = 3
	cgIters     = 24
)

// binsFor is the spreading grid dimension for n cells.
func binsFor(n int) int { return int(math.Sqrt(float64(n)))/2 + 4 }

// Placement is the result: one (x, y) per cell plus fixed pad
// locations for primary inputs and outputs.
type Placement struct {
	X, Y       []float64 // per cell, cell centers in um
	PIx, PIy   []float64 // per primary input pad
	POx, POy   []float64 // per primary output pad
	DieW, DieH float64
	RowHeight  float64
	HPWL       float64 // final half-perimeter wirelength (um)
	HPWLGlobal float64 // wirelength after the unconstrained solve
	Overflow   float64 // residual bin overflow fraction after spreading
}

// Fingerprint returns the placement's canonical content hash: every
// field, with slice lengths, because routing and timing read the pad
// coordinates and the row height as well as the cell centers.
func (p *Placement) Fingerprint() uint64 {
	h := hash.New()
	for _, vec := range [][]float64{p.X, p.Y, p.PIx, p.PIy, p.POx, p.POy} {
		h.Int(len(vec))
		for _, v := range vec {
			h.F64(v)
		}
	}
	for _, v := range []float64{p.DieW, p.DieH, p.RowHeight, p.HPWL, p.HPWLGlobal, p.Overflow} {
		h.F64(v)
	}
	return uint64(h)
}

// ApproxBytes estimates the placement's in-memory footprint — the
// unit a byte-budgeted artifact cache accounts it in.
func (p *Placement) ApproxBytes() int64 { return 64 + 16*int64(len(p.X)) }

// Synthetic probe arena layout: each vector gets its own region so the
// cache simulation sees realistic cross-array conflict behaviour.
const (
	arenaBase   = uint64(0x9000_0000)
	arenaStride = uint64(1) << 24
)

func vecAddr(arena int, i int) uint64 {
	return arenaBase + uint64(arena)*arenaStride + uint64(i)*8
}

// rgGather is the hot-window region of the matvec position gathers.
const rgGather = 3

// Place computes cell locations for the netlist. The returned report
// profiles the run in three phases: the global quadratic solves, the
// spreading rounds and legalization.
func Place(nl *netlist.Netlist, opts Options) (*Placement, *perf.Report, error) {
	n := nl.NumCells()
	if n == 0 {
		return nil, nil, fmt.Errorf("place: empty netlist")
	}
	bins := binsFor(n)
	probe := opts.Probe
	report := &perf.Report{Job: "placement"}

	p := &Placement{
		X: make([]float64, n), Y: make([]float64, n),
		RowHeight: rowHeight,
	}
	// Die sizing: square die at target utilization.
	dieArea := nl.Area() / targetUtil
	p.DieW = math.Sqrt(dieArea)
	p.DieH = p.DieW
	if p.DieH < 2*rowHeight {
		p.DieH = 2 * rowHeight
		p.DieW = dieArea / p.DieH
	}
	placePads(nl, p)

	sys := buildSystem(nl, p, probe)
	sys.pool = par.Fixed(opts.Workers)

	// Initial positions: die center (CG starts from flat).
	for i := range p.X {
		p.X[i] = p.DieW / 2
		p.Y[i] = p.DieH / 2
	}

	// Phase 1: unconstrained quadratic solve.
	solveCG(sys, p.X, sys.bx, cgIters, probe)
	solveCG(sys, p.Y, sys.by, cgIters, probe)
	clampToDie(p)
	p.HPWLGlobal = HPWL(nl, p, probe)
	report.AddPhase(probe.TakePhase("global-cg", 0.70, n/128+1))

	// Phase 2: spreading with anchor re-solves. Anchor strength grows
	// geometrically so late rounds dominate the quadratic pull-back.
	alpha := 0.05 * sys.avgDegree
	var overflow float64
	for it := 0; it < spreadIters; it++ {
		var tx, ty []float64
		tx, ty, overflow = spread(nl, p, bins, probe)
		resolveWithAnchors(sys, p, tx, ty, alpha, cgIters, probe)
		clampToDie(p)
		alpha *= 4
	}
	p.Overflow = overflow
	report.AddPhase(probe.TakePhase("spread", 0.50, bins*bins/8+1))

	// Phase 3: legalization.
	legalize(nl, p, probe)
	p.HPWL = HPWL(nl, p, probe)
	report.AddPhase(probe.TakePhase("legalize", 0.35, 4))
	return p, report, nil
}

// placePads distributes I/O pads around the die periphery: inputs on
// the left and top edges, outputs on the right and bottom.
func placePads(nl *netlist.Netlist, p *Placement) {
	nPI, nPO := len(nl.PIs), len(nl.POs)
	p.PIx = make([]float64, nPI)
	p.PIy = make([]float64, nPI)
	p.POx = make([]float64, nPO)
	p.POy = make([]float64, nPO)
	for i := 0; i < nPI; i++ {
		f := (float64(i) + 0.5) / float64(nPI)
		if i%2 == 0 {
			p.PIx[i], p.PIy[i] = 0, f*p.DieH
		} else {
			p.PIx[i], p.PIy[i] = f*p.DieW, p.DieH
		}
	}
	for i := 0; i < nPO; i++ {
		f := (float64(i) + 0.5) / float64(nPO)
		if i%2 == 0 {
			p.POx[i], p.POy[i] = p.DieW, f*p.DieH
		} else {
			p.POx[i], p.POy[i] = f*p.DieW, 0
		}
	}
}

// system is the quadratic placement system in CSR form: matrix A
// (Laplacian plus pad diagonal), right-hand sides bx/by from pad
// terms.
type system struct {
	n         int
	rowStart  []int32
	colIdx    []int32
	val       []float64
	diag      []float64
	bx, by    []float64
	avgDegree float64
	pool      *par.Pool
}

// buildSystem assembles the star-model quadratic system.
func buildSystem(nl *netlist.Netlist, p *Placement, probe *perf.Probe) *system {
	n := nl.NumCells()
	type entry struct {
		i, j int32
		w    float64
	}
	var edges []entry
	diag := make([]float64, n)
	bx := make([]float64, n)
	by := make([]float64, n)

	addFixed := func(i int, w, fx, fy float64) {
		diag[i] += w
		bx[i] += w * fx
		by[i] += w * fy
	}

	for id := range nl.Nets {
		net := &nl.Nets[id]
		k := len(net.Sinks) + len(net.POs)
		if k == 0 {
			continue
		}
		w := 2.0 / float64(k+1)
		probe.Load(vecAddr(6, id))
		switch {
		case net.Driver != netlist.NoCell:
			d := int32(net.Driver)
			for _, s := range net.Sinks {
				if s.Cell == net.Driver {
					continue // self-loop contributes nothing
				}
				edges = append(edges, entry{d, int32(s.Cell), w})
			}
			for _, po := range net.POs {
				addFixed(int(d), w, p.POx[po], p.POy[po])
			}
		case net.DriverPI >= 0:
			pi := net.DriverPI
			for _, s := range net.Sinks {
				addFixed(int(s.Cell), w, p.PIx[pi], p.PIy[pi])
			}
		}
	}

	// Accumulate symmetric off-diagonals in CSR.
	count := make([]int32, n+1)
	for _, e := range edges {
		count[e.i+1]++
		count[e.j+1]++
		diag[e.i] += e.w
		diag[e.j] += e.w
	}
	for i := 0; i < n; i++ {
		count[i+1] += count[i]
	}
	colIdx := make([]int32, len(edges)*2)
	val := make([]float64, len(edges)*2)
	cursor := make([]int32, n)
	for _, e := range edges {
		pos := count[e.i] + cursor[e.i]
		colIdx[pos] = e.j
		val[pos] = -e.w
		cursor[e.i]++
		pos = count[e.j] + cursor[e.j]
		colIdx[pos] = e.i
		val[pos] = -e.w
		cursor[e.j]++
	}
	// Regularize isolated cells so the system stays SPD.
	center := 1e-6
	for i := 0; i < n; i++ {
		if diag[i] == 0 {
			diag[i] = center
			bx[i] = center * p.DieW / 2
			by[i] = center * p.DieH / 2
		}
	}
	return &system{
		n:         n,
		rowStart:  count,
		colIdx:    colIdx,
		val:       val,
		diag:      diag,
		bx:        bx,
		by:        by,
		avgDegree: float64(len(edges)*2) / float64(n+1),
	}
}

// matVecGrain is the per-chunk row count of the parallel matVec; a
// fixed constant keeps the probe-shard layout machine-independent.
const matVecGrain = 128

// matVec computes out = A*x where A = diag + off-diagonals. Rows are
// independent, so the CSR row loop — the hot kernel of the CG solver —
// runs on the pool; each row's gather order is unchanged, so results
// are bit-identical to the serial loop.
func (s *system) matVec(x, out []float64, probe *perf.Probe) {
	probe.LoadRange(vecAddr(0, 0), s.n, 8)
	s.pool.ForProbe(probe, s.n, matVecGrain, func(lo, hi, _ int, probe *perf.Probe) {
		for i := lo; i < hi; i++ {
			acc := s.diag[i] * x[i]
			for k := s.rowStart[i]; k < s.rowStart[i+1]; k++ {
				j := s.colIdx[k]
				// Gather through connectivity: the position vector is hot
				// (it fits the LLC even at one slice on real design sizes);
				// only the streamed operand arrays pay capacity misses.
				probe.LoadHot(rgGather, uint64(j))
				acc += s.val[k] * x[j]
			}
			out[i] = acc
		}
	})
	probe.FPVector(2*len(s.val) + 2*s.n)
	probe.LoopBranches(len(s.val) + s.n)
}

// solveCG solves A*x = b in place with Jacobi-preconditioned conjugate
// gradients.
func solveCG(s *system, x, b []float64, maxIter int, probe *perf.Probe) {
	n := s.n
	r := make([]float64, n)
	z := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)

	s.matVec(x, ap, probe)
	var rz float64
	for i := 0; i < n; i++ {
		r[i] = b[i] - ap[i]
		z[i] = r[i] / s.diag[i]
		p[i] = z[i]
		rz += r[i] * z[i]
	}
	probe.LoadRange(vecAddr(2, 0), 4*n, 8)
	probe.FPVector(3 * n)
	probe.LoopBranches(n)

	norm0 := math.Sqrt(math.Abs(rz))
	if norm0 == 0 {
		return
	}
	for it := 0; it < maxIter; it++ {
		s.matVec(p, ap, probe)
		var pap float64
		for i := 0; i < n; i++ {
			pap += p[i] * ap[i]
		}
		probe.LoadRange(vecAddr(3, 0), 2*n, 8)
		probe.FPVector(2 * n)
		probe.LoopBranches(n)
		if pap == 0 {
			break
		}
		alpha := rz / pap
		var rzNew float64
		for i := 0; i < n; i++ {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
			z[i] = r[i] / s.diag[i]
			rzNew += r[i] * z[i]
		}
		probe.LoadRange(vecAddr(4, 0), 4*n, 8)
		probe.FPVector(6 * n)
		probe.LoopBranches(n)
		if math.Sqrt(math.Abs(rzNew)) < 4e-3*norm0 {
			probe.Branch(brCGConverged, true)
			break
		}
		probe.Branch(brCGConverged, false)
		beta := rzNew / rz
		rz = rzNew
		for i := 0; i < n; i++ {
			p[i] = z[i] + beta*p[i]
		}
		probe.LoadRange(vecAddr(5, 0), 2*n, 8)
		probe.FPVector(2 * n)
		probe.LoopBranches(n)
	}
}

// Branch-site identifiers for the placement engine.
const (
	brCGConverged = uint64(0x11)
	brBinOverfull = uint64(0x12)
	brLegalRow    = uint64(0x13)
)

// resolveWithAnchors re-solves the system with pseudo-net anchors
// pulling each cell toward its spread target (tx, ty).
func resolveWithAnchors(s *system, p *Placement, tx, ty []float64, alpha float64, iters int, probe *perf.Probe) {
	n := s.n
	bx := make([]float64, n)
	by := make([]float64, n)
	savedDiag := make([]float64, n)
	copy(savedDiag, s.diag)
	for i := 0; i < n; i++ {
		s.diag[i] += alpha
		bx[i] = s.bx[i] + alpha*tx[i]
		by[i] = s.by[i] + alpha*ty[i]
	}
	probe.LoadRange(vecAddr(7, 0), 3*n, 8)
	probe.FPVector(4 * n)
	solveCG(s, p.X, bx, iters, probe)
	solveCG(s, p.Y, by, iters, probe)
	copy(s.diag, savedDiag)
}

// spread computes per-cell spreading targets by diffusing cells out of
// overfull density bins, returning targets plus the residual overflow
// fraction.
func spread(nl *netlist.Netlist, p *Placement, bins int, probe *perf.Probe) ([]float64, []float64, float64) {
	n := len(p.X)
	tx := make([]float64, n)
	ty := make([]float64, n)
	copy(tx, p.X)
	copy(ty, p.Y)

	binW := p.DieW / float64(bins)
	binH := p.DieH / float64(bins)
	binCap := binW * binH // area capacity per bin
	occ := make([]float64, bins*bins)
	members := make([][]int32, bins*bins)

	binOf := func(x, y float64) int {
		bx := int(x / binW)
		by := int(y / binH)
		if bx < 0 {
			bx = 0
		}
		if bx >= bins {
			bx = bins - 1
		}
		if by < 0 {
			by = 0
		}
		if by >= bins {
			by = bins - 1
		}
		return by*bins + bx
	}
	for i := 0; i < n; i++ {
		probe.Load(vecAddr(8, i))
		probe.LoopBranches(4)
		b := binOf(p.X[i], p.Y[i])
		occ[b] += nl.Cells[i].Type.Area
		members[b] = append(members[b], int32(i))
		probe.Store(vecAddr(9, b))
	}

	// Move excess cells from overfull bins toward the nearest underfull
	// bin center, worst bins first.
	type binLoad struct {
		idx  int
		over float64
	}
	var over []binLoad
	var totalArea float64
	for b := range occ {
		totalArea += occ[b]
		if occ[b] > binCap {
			over = append(over, binLoad{b, occ[b] - binCap})
		}
		probe.Branch(brBinOverfull, occ[b] > binCap)
	}
	sort.Slice(over, func(i, j int) bool { return over[i].over > over[j].over })

	for _, bl := range over {
		b := bl.idx
		bx, by := b%bins, b/bins
		// Find nearest underfull bins in a growing ring.
		excess := bl.over
		mi := len(members[b]) - 1
		for ring := 1; ring < bins && excess > 0 && mi >= 0; ring++ {
			for dy := -ring; dy <= ring && excess > 0 && mi >= 0; dy++ {
				for dx := -ring; dx <= ring && excess > 0 && mi >= 0; dx++ {
					if ints.Abs(dx) != ring && ints.Abs(dy) != ring {
						continue
					}
					nx, ny := bx+dx, by+dy
					if nx < 0 || nx >= bins || ny < 0 || ny >= bins {
						continue
					}
					nb := ny*bins + nx
					probe.Load(vecAddr(9, nb))
					if occ[nb] >= binCap {
						continue
					}
					room := binCap - occ[nb]
					for room > 0 && excess > 0 && mi >= 0 {
						ci := members[b][mi]
						mi--
						a := nl.Cells[ci].Type.Area
						tx[ci] = (float64(nx) + 0.5) * binW
						ty[ci] = (float64(ny) + 0.5) * binH
						occ[b] -= a
						occ[nb] += a
						room -= a
						excess -= a
						probe.Store(vecAddr(8, int(ci)))
						probe.Ops(6)
					}
				}
			}
		}
	}
	// Residual overflow of the target distribution after the moves.
	var totalOver float64
	for b := range occ {
		if occ[b] > binCap {
			totalOver += occ[b] - binCap
		}
	}
	var residual float64
	if totalArea > 0 {
		residual = totalOver / totalArea
	}
	return tx, ty, residual
}

// legalize snaps cells to rows with Tetris packing: cells sorted by x
// take the nearest row slot whose cursor admits them.
func legalize(nl *netlist.Netlist, p *Placement, probe *perf.Probe) {
	n := len(p.X)
	rows := int(p.DieH / p.RowHeight)
	if rows < 1 {
		rows = 1
	}
	cursor := make([]float64, rows)

	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool { return p.X[order[a]] < p.X[order[b]] })
	probe.Ops(n * 4) // sort cost proxy
	probe.LoadRange(vecAddr(10, 0), n, 8)

	for _, ci := range order {
		cellW := nl.Cells[ci].Type.Area / p.RowHeight
		wantRow := int(p.Y[ci] / p.RowHeight)
		bestRow, bestCost := -1, math.Inf(1)
		for r := 0; r < rows; r++ {
			probe.Load(vecAddr(11, r))
			probe.LoopBranches(3)
			// Feasible iff the row still has room at its cursor.
			if cursor[r]+cellW > p.DieW {
				probe.Branch(brLegalRow, false)
				continue
			}
			x := math.Min(math.Max(cursor[r], p.X[ci]), p.DieW-cellW)
			cost := math.Abs(float64(r-wantRow))*p.RowHeight + math.Abs(x-p.X[ci])
			better := cost < bestCost
			probe.Branch(brLegalRow, better)
			if better {
				bestCost = cost
				bestRow = r
			}
		}
		if bestRow < 0 {
			// All rows full: spill into the emptiest row at its cursor.
			for r := 0; r < rows; r++ {
				if bestRow < 0 || cursor[r] < cursor[bestRow] {
					bestRow = r
				}
			}
			x := math.Min(cursor[bestRow], math.Max(0, p.DieW-cellW))
			p.X[ci] = x
			p.Y[ci] = (float64(bestRow) + 0.5) * p.RowHeight
			cursor[bestRow] = math.Max(cursor[bestRow], x+cellW)
			continue
		}
		x := math.Min(math.Max(cursor[bestRow], p.X[ci]), p.DieW-cellW)
		p.X[ci] = x
		p.Y[ci] = (float64(bestRow) + 0.5) * p.RowHeight
		cursor[bestRow] = x + cellW
		probe.Store(vecAddr(11, bestRow))
	}
}

func clampToDie(p *Placement) {
	for i := range p.X {
		p.X[i] = math.Min(math.Max(p.X[i], 0), p.DieW)
		p.Y[i] = math.Min(math.Max(p.Y[i], 0), p.DieH)
	}
}

// HPWL returns the total half-perimeter wirelength over all nets.
func HPWL(nl *netlist.Netlist, p *Placement, probe *perf.Probe) float64 {
	var total float64
	for id := range nl.Nets {
		net := &nl.Nets[id]
		minX, maxX := math.Inf(1), math.Inf(-1)
		minY, maxY := math.Inf(1), math.Inf(-1)
		touch := func(x, y float64) {
			minX = math.Min(minX, x)
			maxX = math.Max(maxX, x)
			minY = math.Min(minY, y)
			maxY = math.Max(maxY, y)
		}
		switch {
		case net.Driver != netlist.NoCell:
			touch(p.X[net.Driver], p.Y[net.Driver])
		case net.DriverPI >= 0:
			touch(p.PIx[net.DriverPI], p.PIy[net.DriverPI])
		default:
			continue
		}
		for _, s := range net.Sinks {
			probe.Load(vecAddr(12, int(s.Cell)))
			touch(p.X[s.Cell], p.Y[s.Cell])
		}
		for _, po := range net.POs {
			touch(p.POx[po], p.POy[po])
		}
		if len(net.Sinks)+len(net.POs) > 0 {
			total += (maxX - minX) + (maxY - minY)
		}
		probe.FPScalar(4)
	}
	return total
}
