package netlist

import (
	"slices"
	"strconv"
	"testing"

	"edacloud/internal/techlib"
)

// shape is every length a refused call must leave alone.
func shape(n *Netlist) []int {
	s := []int{len(n.Cells), len(n.Nets), len(n.PIs), len(n.POs), len(n.pins)}
	for i := range n.Nets {
		s = append(s, len(n.Sinks(NetID(i))), len(n.NetPOs(NetID(i))))
	}
	return s
}

// checkIndex recounts every net's sinks from the cells' pins, in
// ascending (cell, pin) order, and its outputs from the output ports,
// in port order, and fails unless Sinks and NetPOs read exactly those.
func checkIndex(t *testing.T, n *Netlist) {
	t.Helper()
	sinks := make([][]PinRef, len(n.Nets))
	pos := make([][]int32, len(n.Nets))
	for id := range n.Cells {
		for pin, net := range n.Ins(CellID(id)) {
			if net != NoNet {
				sinks[net] = append(sinks[net], PinRef{CellID(id), int32(pin)})
			}
		}
	}
	for i, p := range n.POs {
		pos[p.Net] = append(pos[p.Net], int32(i))
	}
	for i := range n.Nets {
		if got := n.Sinks(NetID(i)); !slices.Equal(got, sinks[i]) {
			t.Fatalf("net %d: Sinks %v, recount %v", i, got, sinks[i])
		}
		if got := n.NetPOs(NetID(i)); !slices.Equal(got, pos[i]) {
			t.Fatalf("net %d: NetPOs %v, recount %v", i, got, pos[i])
		}
	}
}

// FuzzBuild drives the builder with a random sequence of AddPI, AddNet,
// AddPO and AddCell calls on a reserved or an unreserved netlist. Cell
// inputs and PO nets are drawn from the driven nets, or are NoNet or
// out of range; a cell's output may be any net, driven or not, or out
// of range, and its connection count may be off by one. After every
// call, accepted or refused, Check holds and the fanout index equals a
// recount from the pins and the output ports. AddCell refuses exactly
// the calls a reference rule refuses, a refused call leaves the
// fingerprint and every length unchanged, and an accepted one owns a
// copy of exactly the pins it was given.
func FuzzBuild(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 3, 0, 0, 1, 0, 3, 1, 1, 2, 2, 2})
	f.Add([]byte{1, 4, 2, 6, 3, 9, 0, 0, 3, 3, 0, 0, 250, 0, 3, 0, 0, 0, 0, 2, 0})
	types := []*techlib.Cell{
		lib.MustCell("INV_X1"), lib.MustCell("NAND2_X1"),
		lib.MustCell("AOI21_X1"), lib.MustCell("DFF_X1"),
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		var n *Netlist
		if next()&1 == 1 {
			n = NewSized("fuzz", lib, Size{PIs: next() % 8, POs: next() % 8, Nets: next() % 32, Cells: next() % 32, Pins: next() % 64})
		} else {
			n = New("fuzz", lib)
		}
		var driven []NetID
		// pick draws a net: a driven one, NoNet or one out of range.
		pick := func() NetID {
			b := next()
			switch {
			case b >= 0xfc:
				return []NetID{NoNet, -2, NetID(len(n.Nets)), NetID(len(n.Nets) + b)}[b-0xfc]
			case len(driven) == 0:
				return NoNet
			}
			return driven[b%len(driven)]
		}
		for calls := 0; len(data) > 0 && calls < 256; calls++ {
			switch op := next() % 4; op {
			case 0:
				driven = append(driven, n.AddPI("pi"+strconv.Itoa(len(n.PIs))))
			case 1:
				n.AddNet()
			case 2:
				if net := pick(); net >= 0 && int(net) < len(n.Nets) {
					n.AddPO("po"+strconv.Itoa(len(n.POs)), net)
				}
			case 3:
				typ := types[next()%len(types)]
				ins := make([]NetID, typ.NumInputs()+next()%3-1)
				for i := range ins {
					ins[i] = pick()
				}
				out := NetID(next()%(len(n.Nets)+4) - 2)
				refuse := len(ins) != typ.NumInputs() || out < NoNet || int(out) >= len(n.Nets)
				for _, in := range ins {
					refuse = refuse || in < NoNet || int(in) >= len(n.Nets)
				}
				if !refuse && out != NoNet {
					refuse = n.Nets[out].Driver != NoCell || n.Nets[out].DriverPI >= 0
				}
				fp, before := n.Fingerprint(), shape(n)
				id, err := n.AddCell(typ, ins, out)
				if (err != nil) != refuse {
					t.Fatalf("AddCell(%s, %v, %d) err = %v, want refused %v", typ.Name, ins, out, err, refuse)
				}
				if err != nil {
					if n.Fingerprint() != fp || !slices.Equal(shape(n), before) {
						t.Fatalf("refused AddCell(%s, %v, %d) changed the netlist", typ.Name, ins, out)
					}
					break
				}
				got := n.Ins(id)
				if !slices.Equal(got, ins) || cap(got) != len(got) {
					t.Fatalf("cell %d owns pins %v (cap %d), given %v", id, got, cap(got), ins)
				}
				ins[0] = -9 // the cell keeps its own copy
				if got[0] == -9 {
					t.Fatal("the cell aliases its caller's input slice")
				}
				if out != NoNet {
					driven = append(driven, out)
				}
			}
			if err := n.Check(); err != nil {
				t.Fatalf("Check after call %d: %v", calls, err)
			}
			checkIndex(t, n)
		}
	})
}
