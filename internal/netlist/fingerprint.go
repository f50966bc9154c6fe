package netlist

import "edacloud/internal/hash"

// Canonical structural identity for the content-addressed artifact
// cache: the fingerprint covers every cell (name, type, pin binding),
// every net (driver and sinks) and the port lists, so two netlists
// hash equal exactly when they are the same mapped circuit. FNV-1a
// over fixed-width words — structure, not formatting.

// Fingerprint returns the netlist's canonical structural hash.
func (n *Netlist) Fingerprint() uint64 {
	h := hash.New()
	h.Str(n.Name)
	h.Int(len(n.Cells))
	for _, c := range n.Cells {
		h.Str(c.Name)
		if c.Type != nil {
			h.Str(c.Type.Name)
		}
		h.Int(int(c.Out))
		for _, in := range c.Ins {
			h.Int(int(in))
		}
	}
	h.Int(len(n.Nets))
	for _, net := range n.Nets {
		h.Str(net.Name)
		h.Int(int(net.Driver))
		h.Int(int(net.DriverPI))
		for _, s := range net.Sinks {
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
// a byte-budgeted artifact cache accounts this netlist in.
func (n *Netlist) ApproxBytes() int64 {
	var b int64
	for _, c := range n.Cells {
		b += 32 + int64(len(c.Name)) + 4*int64(len(c.Ins))
	}
	for _, net := range n.Nets {
		b += 32 + int64(len(net.Name)) + 8*int64(len(net.Sinks))
	}
	for _, p := range n.PIs {
		b += 16 + int64(len(p.Name))
	}
	for _, p := range n.POs {
		b += 16 + int64(len(p.Name))
	}
	return b
}
