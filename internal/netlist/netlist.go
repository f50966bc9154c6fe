// Package netlist represents gate-level mapped netlists: standard cells
// from a technology library connected by single-driver nets. It is the
// shared currency between the synthesis engine (which produces
// netlists), the placer, router and STA engines (which consume them),
// and the GCN runtime predictor (which consumes the star-model graph
// export defined in graph.go).
package netlist

import (
	"fmt"

	"edacloud/internal/techlib"
)

// CellID identifies a cell instance within one netlist.
type CellID int32

// NetID identifies a net within one netlist.
type NetID int32

// NoCell and NoNet are sentinel identifiers.
const (
	NoCell CellID = -1
	NoNet  NetID  = -1
)

// PinRef addresses one input pin of one cell instance.
type PinRef struct {
	Cell CellID
	Pin  int32 // index into the cell type's Inputs
}

// Cell is a placed-or-unplaced standard-cell instance.
type Cell struct {
	Name string
	Type *techlib.Cell
	Ins  []NetID // input nets in pin order; NoNet when unconnected
	Out  NetID   // output net; NoNet when unconnected
}

// Net is a signal wire with a single driver and any number of sinks.
type Net struct {
	Name     string
	Driver   CellID // driving cell, or NoCell when driven by a PI
	DriverPI int32  // PI index when Driver == NoCell, else -1
	Sinks    []PinRef
	POs      []int32 // primary-output indices fed by this net
}

// Port is a primary input or output of the design.
type Port struct {
	Name string
	Net  NetID
}

// Netlist is a mapped gate-level design.
type Netlist struct {
	Name  string
	Lib   *techlib.Library
	Cells []Cell
	Nets  []Net
	PIs   []Port
	POs   []Port

	// pins backs every cell's Ins: AddCell appends a cell's inputs here
	// and hands the cell a full slice expression of them, so the cell
	// owns exactly its own pins and no per-cell copy is made.
	pins []NetID
}

// Size is the room a netlist reserves for what it is about to hold.
type Size struct {
	PIs, POs, Nets, Cells int
	// Pins is the summed input-pin count of the cells.
	Pins int
}

// New returns an empty netlist bound to the given library.
func New(name string, lib *techlib.Library) *Netlist { return NewSized(name, lib, Size{}) }

// NewSized is New with room reserved for the given numbers of ports,
// nets, cells and input pins. The reservation is a hint, not a limit:
// a caller that knows the netlist it is about to build (the mapper,
// after planning its cover) builds it without regrowing any array.
func NewSized(name string, lib *techlib.Library, s Size) *Netlist {
	return &Netlist{
		Name:  name,
		Lib:   lib,
		Cells: make([]Cell, 0, s.Cells),
		Nets:  make([]Net, 0, s.Nets),
		PIs:   make([]Port, 0, s.PIs),
		POs:   make([]Port, 0, s.POs),
		pins:  make([]NetID, 0, s.Pins),
	}
}

// AddNet creates a new undriven net and returns its identifier.
func (n *Netlist) AddNet(name string) NetID {
	id := NetID(len(n.Nets))
	n.Nets = append(n.Nets, Net{Name: name, Driver: NoCell, DriverPI: -1})
	return id
}

// AddPI creates a primary input port driving a fresh net and returns
// the net.
func (n *Netlist) AddPI(name string) NetID {
	net := n.AddNet(name)
	n.Nets[net].DriverPI = int32(len(n.PIs))
	n.PIs = append(n.PIs, Port{Name: name, Net: net})
	return net
}

// AddPO registers net as a primary output.
func (n *Netlist) AddPO(name string, net NetID) {
	n.Nets[net].POs = append(n.Nets[net].POs, int32(len(n.POs)))
	n.POs = append(n.POs, Port{Name: name, Net: net})
}

// AddCell instantiates a cell of the given type. The input slice length
// must match the cell's pin count; out may be NoNet for sink-only
// pseudo-cells. Connectivity (net sink/driver lists) is updated. A
// refused cell leaves the netlist as it was: every connection is
// checked before anything is added.
func (n *Netlist) AddCell(name string, typ *techlib.Cell, ins []NetID, out NetID) (CellID, error) {
	if len(ins) != typ.NumInputs() {
		return NoCell, fmt.Errorf("netlist: cell %s of type %s: %d connections for %d pins",
			name, typ.Name, len(ins), typ.NumInputs())
	}
	for pin, net := range ins {
		if net != NoNet && (net < 0 || int(net) >= len(n.Nets)) {
			return NoCell, fmt.Errorf("netlist: cell %s pin %d: net %d out of range", name, pin, net)
		}
	}
	if out != NoNet {
		if out < 0 || int(out) >= len(n.Nets) {
			return NoCell, fmt.Errorf("netlist: cell %s: output net %d out of range", name, out)
		}
		if d := n.Nets[out].Driver; d != NoCell {
			return NoCell, fmt.Errorf("netlist: net %s already driven by cell %s",
				n.Nets[out].Name, n.Cells[d].Name)
		}
		if n.Nets[out].DriverPI >= 0 {
			return NoCell, fmt.Errorf("netlist: net %s already driven by a primary input", n.Nets[out].Name)
		}
	}
	id := CellID(len(n.Cells))
	start := len(n.pins)
	n.pins = append(n.pins, ins...)
	n.Cells = append(n.Cells, Cell{Name: name, Type: typ, Ins: n.pins[start:len(n.pins):len(n.pins)], Out: out})
	for pin, net := range ins {
		if net == NoNet {
			continue
		}
		n.Nets[net].Sinks = append(n.Nets[net].Sinks, PinRef{Cell: id, Pin: int32(pin)})
	}
	if out != NoNet {
		n.Nets[out].Driver = id
	}
	return id, nil
}

// MustAddCell is AddCell that panics on error; for use by generators
// with statically correct pin counts.
func (n *Netlist) MustAddCell(name string, typ *techlib.Cell, ins []NetID, out NetID) CellID {
	id, err := n.AddCell(name, typ, ins, out)
	if err != nil {
		panic(err)
	}
	return id
}

// NumCells returns the number of cell instances.
func (n *Netlist) NumCells() int { return len(n.Cells) }

// NumNets returns the number of nets.
func (n *Netlist) NumNets() int { return len(n.Nets) }

// Area returns the summed cell area.
func (n *Netlist) Area() float64 {
	var a float64
	for i := range n.Cells {
		a += n.Cells[i].Type.Area
	}
	return a
}

// NumSeq returns the number of sequential cells.
func (n *Netlist) NumSeq() int {
	k := 0
	for i := range n.Cells {
		if n.Cells[i].Type.Seq {
			k++
		}
	}
	return k
}

// Check validates structural invariants: every net is driven by exactly
// one source (cell, PI, or is explicitly floating with no sinks), pin
// references are in range, cell pin counts match their types, and the
// combinational core is acyclic.
func (n *Netlist) Check() error {
	for id := range n.Cells {
		c := &n.Cells[id]
		if len(c.Ins) != c.Type.NumInputs() {
			return fmt.Errorf("netlist: cell %s: %d connections for %d pins", c.Name, len(c.Ins), c.Type.NumInputs())
		}
		for pin, net := range c.Ins {
			if net != NoNet && (net < 0 || int(net) >= len(n.Nets)) {
				return fmt.Errorf("netlist: cell %s pin %d: net %d out of range", c.Name, pin, net)
			}
		}
		if c.Out != NoNet && n.Nets[c.Out].Driver != CellID(id) {
			return fmt.Errorf("netlist: cell %s: output net %s driver mismatch", c.Name, n.Nets[c.Out].Name)
		}
	}
	for id := range n.Nets {
		net := &n.Nets[id]
		if net.Driver != NoCell && net.DriverPI >= 0 {
			return fmt.Errorf("netlist: net %s has two drivers", net.Name)
		}
		if net.Driver == NoCell && net.DriverPI < 0 && len(net.Sinks)+len(net.POs) > 0 {
			return fmt.Errorf("netlist: net %s has sinks but no driver", net.Name)
		}
		for _, s := range net.Sinks {
			if s.Cell < 0 || int(s.Cell) >= len(n.Cells) {
				return fmt.Errorf("netlist: net %s: sink cell out of range", net.Name)
			}
			if n.Cells[s.Cell].Ins[s.Pin] != NetID(id) {
				return fmt.Errorf("netlist: net %s: sink back-reference mismatch", net.Name)
			}
		}
	}
	if _, err := n.TopoCells(); err != nil {
		return err
	}
	return nil
}

// TopoCells returns the cell instances in combinational topological
// order: a cell appears after the drivers of all its input nets.
// Sequential cell outputs are treated as sources (their D inputs are
// sinks), which breaks registered feedback loops. An error is returned
// when a purely combinational cycle exists.
func (n *Netlist) TopoCells() ([]CellID, error) {
	indeg := make([]int32, len(n.Cells))
	for id := range n.Cells {
		c := &n.Cells[id]
		if c.Type.Seq {
			continue // sequential outputs are level-0 sources
		}
		for _, net := range c.Ins {
			if net == NoNet {
				continue
			}
			d := n.Nets[net].Driver
			if d != NoCell && !n.Cells[d].Type.Seq {
				indeg[id]++
			}
		}
	}
	queue := make([]CellID, 0, len(n.Cells))
	for id := range n.Cells {
		if indeg[id] == 0 {
			queue = append(queue, CellID(id))
		}
	}
	order := make([]CellID, 0, len(n.Cells))
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		c := &n.Cells[id]
		if c.Out == NoNet {
			continue
		}
		for _, s := range n.Nets[c.Out].Sinks {
			if n.Cells[s.Cell].Type.Seq {
				continue
			}
			indeg[s.Cell]--
			if indeg[s.Cell] == 0 {
				queue = append(queue, s.Cell)
			}
		}
	}
	if len(order) != len(n.Cells) {
		return nil, fmt.Errorf("netlist: combinational cycle detected (%d of %d cells ordered)",
			len(order), len(n.Cells))
	}
	return order, nil
}

// Levels returns the combinational logic level of every cell: sequential
// cells and cells fed only by PIs are level 0; otherwise one more than
// the deepest combinational driver.
func (n *Netlist) Levels() ([]int32, error) {
	order, err := n.TopoCells()
	if err != nil {
		return nil, err
	}
	lv := make([]int32, len(n.Cells))
	for _, id := range order {
		c := &n.Cells[id]
		if c.Type.Seq {
			continue
		}
		var best int32 = -1
		for _, net := range c.Ins {
			if net == NoNet {
				continue
			}
			d := n.Nets[net].Driver
			if d == NoCell || n.Cells[d].Type.Seq {
				continue
			}
			if lv[d] > best {
				best = lv[d]
			}
		}
		lv[id] = best + 1
	}
	return lv, nil
}

// FanoutCounts returns per-cell output fanout (sink pins plus POs).
func (n *Netlist) FanoutCounts() []int {
	fo := make([]int, len(n.Cells))
	for id := range n.Cells {
		c := &n.Cells[id]
		if c.Out == NoNet {
			continue
		}
		fo[id] = len(n.Nets[c.Out].Sinks) + len(n.Nets[c.Out].POs)
	}
	return fo
}

// Stats summarizes a netlist.
type Stats struct {
	Cells  int
	Seq    int
	Nets   int
	PIs    int
	POs    int
	Area   float64
	Levels int
}

// Stats computes summary statistics; Levels is -1 for cyclic netlists.
func (n *Netlist) Stats() Stats {
	s := Stats{
		Cells: len(n.Cells),
		Seq:   n.NumSeq(),
		Nets:  len(n.Nets),
		PIs:   len(n.PIs),
		POs:   len(n.POs),
		Area:  n.Area(),
	}
	if lv, err := n.Levels(); err == nil {
		var max int32
		for _, l := range lv {
			if l > max {
				max = l
			}
		}
		s.Levels = int(max)
	} else {
		s.Levels = -1
	}
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("cells=%d (seq=%d) nets=%d pi/po=%d/%d area=%.1f levels=%d",
		s.Cells, s.Seq, s.Nets, s.PIs, s.POs, s.Area, s.Levels)
}
