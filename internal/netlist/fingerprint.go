package netlist

import "edacloud/internal/hash"

// Canonical structural identity for the content-addressed artifact
// cache: the fingerprint covers every cell (name, type, pin binding),
// every net (driver and sinks) and the port lists, so two netlists
// hash equal exactly when they are the same mapped circuit. FNV-1a
// over fixed-width words — structure, not formatting.

// Fingerprint returns the netlist's canonical structural hash. It
// hashes derived names from a stack buffer and allocates nothing.
func (n *Netlist) Fingerprint() uint64 {
	var buf [16]byte
	h := hash.New()
	h.Str(n.Name)
	h.Int(len(n.Cells))
	for id, c := range n.Cells {
		h.Str(string(appendName(buf[:0], 'u', int32(id))))
		h.Str(c.Type.Name)
		h.Int(int(c.Out))
		for _, in := range n.Ins(CellID(id)) {
			h.Int(int(in))
		}
	}
	h.Int(len(n.Nets))
	for id, net := range n.Nets {
		if net.DriverPI >= 0 {
			h.Str(n.PIs[net.DriverPI].Name)
		} else {
			h.Str(string(appendName(buf[:0], 'n', int32(id))))
		}
		h.Int(int(net.Driver))
		h.Int(int(net.DriverPI))
		for _, s := range n.Sinks(NetID(id)) {
			h.Int(int(s.Cell))
			h.Int(int(s.Pin))
		}
	}
	for _, p := range n.PIs {
		h.Str(p.Name)
		h.Int(int(p.Net))
	}
	for _, p := range n.POs {
		h.Str(p.Name)
		h.Int(int(p.Net))
	}
	return uint64(h)
}

// ApproxBytes estimates the netlist's in-memory footprint — the unit
// a byte-budgeted artifact cache accounts this netlist in. It counts
// every derived name as if it were stored.
func (n *Netlist) ApproxBytes() int64 {
	var buf [16]byte
	var b int64
	for id, c := range n.Cells {
		b += 32 + int64(len(appendName(buf[:0], 'u', int32(id)))) + 4*int64(c.Type.NumInputs())
	}
	for id, net := range n.Nets {
		name := len(appendName(buf[:0], 'n', int32(id)))
		if net.DriverPI >= 0 {
			name = len(n.PIs[net.DriverPI].Name)
		}
		b += 32 + int64(name) + 8*int64(len(n.Sinks(NetID(id))))
	}
	for _, p := range n.PIs {
		b += 16 + int64(len(p.Name))
	}
	for _, p := range n.POs {
		b += 16 + int64(len(p.Name))
	}
	return b
}
