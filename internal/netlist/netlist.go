// Package netlist represents gate-level mapped netlists: standard cells
// from a technology library connected by single-driver nets. It is the
// shared currency between the synthesis engine (which produces
// netlists), the placer, router and STA engines (which consume them),
// and the GCN runtime predictor (which consumes the star-model graph
// export defined in graph.go).
//
// A netlist is flat arrays: a cell is its type, output net and the
// offset of its inputs in one pin array; a net is its driver. Each
// net's sinks and outputs form an index derived from the pins and the
// output ports, built on the first read (once, under any number of
// concurrent readers) and dropped by any later Add call. Only ports
// store names: cell i is u<i>, and net i is n<i> unless a primary input
// drives it, when it takes the input's name.
package netlist

import (
	"fmt"
	"strconv"
	"sync"

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

// Cell is a placed-or-unplaced standard-cell instance. Its input nets
// are read through Netlist.Ins.
type Cell struct {
	Type *techlib.Cell
	Out  NetID // output net; NoNet when unconnected
	pin  int32 // the cell's inputs start at this offset of the pin array
}

// Net is a signal wire with a single driver and any number of sinks,
// which are read through Netlist.Sinks and Netlist.NetPOs.
type Net struct {
	Driver   CellID // driving cell, or NoCell when driven by a PI
	DriverPI int32  // PI index when Driver == NoCell, else -1
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

	// pins holds every cell's input nets in pin order, the cells in ID
	// order.
	pins []NetID
	fan  fanout
}

// fanout is the index of each net's sinks and primary outputs: net i's
// sinks are sinks[sinkStart[i]:sinkStart[i+1]], in ascending (cell,
// pin) order, and its outputs pos[poStart[i]:poStart[i+1]], ascending.
type fanout struct {
	once               sync.Once
	sinkStart, poStart []int32
	sinks              []PinRef
	pos                []int32
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
// a caller that knows about how large a netlist it is about to build
// (the mapper) builds it with little or no regrowth.
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

// changed drops a built fanout index, which the next read rebuilds.
func (n *Netlist) changed() {
	if n.fan.sinkStart != nil {
		n.fan = fanout{}
	}
}

// AddNet creates a new undriven net and returns its identifier.
func (n *Netlist) AddNet() NetID {
	n.changed()
	id := NetID(len(n.Nets))
	n.Nets = append(n.Nets, Net{Driver: NoCell, DriverPI: -1})
	return id
}

// AddPI creates a primary input port driving a fresh net and returns
// the net.
func (n *Netlist) AddPI(name string) NetID {
	net := n.AddNet()
	n.Nets[net].DriverPI = int32(len(n.PIs))
	n.PIs = append(n.PIs, Port{Name: name, Net: net})
	return net
}

// AddPO registers net, which must be a net of n, as a primary output.
func (n *Netlist) AddPO(name string, net NetID) {
	n.changed()
	n.POs = append(n.POs, Port{Name: name, Net: net})
}

// AddCell instantiates a cell of the given type. The input slice length
// must match the cell's pin count; out may be NoNet for sink-only
// pseudo-cells. The inputs are copied. A refused cell leaves the
// netlist as it was: every connection is checked before anything is
// added.
func (n *Netlist) AddCell(typ *techlib.Cell, ins []NetID, out NetID) (CellID, error) {
	id := CellID(len(n.Cells))
	if len(ins) != typ.NumInputs() {
		return NoCell, fmt.Errorf("netlist: cell %s of type %s: %d connections for %d pins",
			n.CellName(id), typ.Name, len(ins), typ.NumInputs())
	}
	for pin, net := range ins {
		if net != NoNet && (net < 0 || int(net) >= len(n.Nets)) {
			return NoCell, fmt.Errorf("netlist: cell %s pin %d: net %d out of range", n.CellName(id), pin, net)
		}
	}
	if out != NoNet {
		if out < 0 || int(out) >= len(n.Nets) {
			return NoCell, fmt.Errorf("netlist: cell %s: output net %d out of range", n.CellName(id), out)
		}
		if d := n.Nets[out].Driver; d != NoCell {
			return NoCell, fmt.Errorf("netlist: net %s already driven by cell %s", n.NetName(out), n.CellName(d))
		}
		if n.Nets[out].DriverPI >= 0 {
			return NoCell, fmt.Errorf("netlist: net %s already driven by a primary input", n.NetName(out))
		}
		n.Nets[out].Driver = id
	}
	n.changed()
	n.Cells = append(n.Cells, Cell{Type: typ, Out: out, pin: int32(len(n.pins))})
	n.pins = append(n.pins, ins...)
	return id, nil
}

// MustAddCell is AddCell that panics on error; for use by generators
// with statically correct pin counts.
func (n *Netlist) MustAddCell(typ *techlib.Cell, ins []NetID, out NetID) CellID {
	id, err := n.AddCell(typ, ins, out)
	if err != nil {
		panic(err)
	}
	return id
}

// Ins returns the input nets of cell id in pin order, NoNet where a
// pin is unconnected. The slice is the netlist's own storage.
func (n *Netlist) Ins(id CellID) []NetID {
	c := &n.Cells[id]
	end := int(c.pin) + c.Type.NumInputs()
	return n.pins[c.pin:end:end]
}

// Sinks returns the cell pins that read net, in ascending (cell, pin)
// order. The slice is the netlist's own storage.
func (n *Netlist) Sinks(net NetID) []PinRef {
	n.BuildIndex()
	return n.fan.sinks[n.fan.sinkStart[net]:n.fan.sinkStart[net+1]]
}

// NetPOs returns the indices of the primary outputs that net feeds, in
// ascending order. The slice is the netlist's own storage.
func (n *Netlist) NetPOs(net NetID) []int32 {
	n.BuildIndex()
	return n.fan.pos[n.fan.poStart[net]:n.fan.poStart[net+1]]
}

// CellName returns the name of cell id, u<id>.
func (n *Netlist) CellName(id CellID) string { return string(appendName(nil, 'u', int32(id))) }

// NetName returns the name of net id: the port name of the primary
// input that drives it, else n<id>.
func (n *Netlist) NetName(id NetID) string {
	if pi := n.Nets[id].DriverPI; pi >= 0 {
		return n.PIs[pi].Name
	}
	return string(appendName(nil, 'n', int32(id)))
}

// appendName appends a derived name, prefix then the decimal id.
func appendName(dst []byte, prefix byte, id int32) []byte {
	return strconv.AppendInt(append(dst, prefix), int64(id), 10)
}

// BuildIndex builds the fanout index that Sinks and NetPOs read unless
// it is built; a producer calls it to pay for it before handing n on.
func (n *Netlist) BuildIndex() { n.fan.once.Do(n.buildIndex) }

// buildIndex counts each net's sinks and outputs into start offsets and
// fills both lists, each start serving as its net's cursor until the
// final shift restores it.
func (n *Netlist) buildIndex() {
	f := &n.fan
	nets := len(n.Nets)
	f.sinkStart, f.poStart = make([]int32, nets+1), make([]int32, nets+1)
	for _, net := range n.pins {
		if net != NoNet {
			f.sinkStart[net+1]++
		}
	}
	for _, p := range n.POs {
		f.poStart[p.Net+1]++
	}
	for i := range nets {
		f.sinkStart[i+1] += f.sinkStart[i]
		f.poStart[i+1] += f.poStart[i]
	}
	f.sinks, f.pos = make([]PinRef, f.sinkStart[nets]), make([]int32, len(n.POs))
	for id := range n.Cells {
		for pin, net := range n.Ins(CellID(id)) {
			if net != NoNet {
				f.sinks[f.sinkStart[net]] = PinRef{Cell: CellID(id), Pin: int32(pin)}
				f.sinkStart[net]++
			}
		}
	}
	for po, p := range n.POs {
		f.pos[f.poStart[p.Net]] = int32(po)
		f.poStart[p.Net]++
	}
	copy(f.sinkStart[1:], f.sinkStart[:nets])
	copy(f.poStart[1:], f.poStart[:nets])
	f.sinkStart[0], f.poStart[0] = 0, 0
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
// references are in range, and the combinational core is acyclic.
func (n *Netlist) Check() error {
	for id := range n.Cells {
		c := &n.Cells[id]
		for pin, net := range n.Ins(CellID(id)) {
			if net != NoNet && (net < 0 || int(net) >= len(n.Nets)) {
				return fmt.Errorf("netlist: cell %s pin %d: net %d out of range", n.CellName(CellID(id)), pin, net)
			}
		}
		if c.Out != NoNet && n.Nets[c.Out].Driver != CellID(id) {
			return fmt.Errorf("netlist: cell %s: output net %s driver mismatch", n.CellName(CellID(id)), n.NetName(c.Out))
		}
	}
	for id := range n.Nets {
		net := &n.Nets[id]
		if net.Driver != NoCell && net.DriverPI >= 0 {
			return fmt.Errorf("netlist: net %s has two drivers", n.NetName(NetID(id)))
		}
		if net.Driver == NoCell && net.DriverPI < 0 && len(n.Sinks(NetID(id)))+len(n.NetPOs(NetID(id))) > 0 {
			return fmt.Errorf("netlist: net %s has sinks but no driver", n.NetName(NetID(id)))
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
		for _, net := range n.Ins(CellID(id)) {
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
		for _, s := range n.Sinks(c.Out) {
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
		for _, net := range n.Ins(id) {
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
		fo[id] = len(n.Sinks(c.Out)) + len(n.NetPOs(c.Out))
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
