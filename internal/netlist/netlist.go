// Package netlist provides the structural circuit substrate for the
// delay-fault ATPG system: a gate-level netlist model of synchronous
// sequential circuits in the finite state machine form of the paper's
// Figure 1 (a combinational block plus a state register of D flip-flops),
// an ISCAS'89 .bench reader and writer, levelization, validation and
// line/branch enumeration.
//
// Terminology follows the paper: PI/PO are primary inputs/outputs, PPI is a
// pseudo primary input (a flip-flop output feeding the combinational block)
// and PPO is a pseudo primary output (the D input of a flip-flop).
package netlist

import (
	"fmt"
	"sort"
)

// NodeID identifies a node (signal) within a Circuit. IDs are dense indices
// into Circuit.Nodes.
type NodeID int32

// None is the invalid NodeID.
const None NodeID = -1

// GateType enumerates the node kinds of a .bench netlist. Input and DFF are
// structural (they have no combinational function); the rest are gates.
type GateType uint8

// Node kinds. The zero value is Input so that a zeroed Node is harmless.
const (
	Input GateType = iota // primary input
	DFF                   // D flip-flop; Fanin[0] is the D (PPO) signal
	Buf
	Not
	And
	Nand
	Or
	Nor
	Xor
	Xnor
)

var gateNames = [...]string{
	Input: "INPUT", DFF: "DFF", Buf: "BUFF", Not: "NOT",
	And: "AND", Nand: "NAND", Or: "OR", Nor: "NOR", Xor: "XOR", Xnor: "XNOR",
}

// String returns the .bench spelling of the gate type.
func (t GateType) String() string {
	if int(t) < len(gateNames) {
		return gateNames[t]
	}
	return fmt.Sprintf("GateType(%d)", uint8(t))
}

// IsGate reports whether the type is a combinational gate (not Input/DFF).
func (t GateType) IsGate() bool { return t != Input && t != DFF }

// Node is one signal source in the circuit: a primary input, a flip-flop
// output, or a gate output. Its output signal carries the node's name.
type Node struct {
	ID     NodeID
	Name   string
	Type   GateType
	Fanin  []NodeID // driving nodes, in gate-input order
	Fanout []NodeID // consuming nodes; one entry per connection
	IsPO   bool     // the node's output is a primary output
	Level  int32    // combinational level; PIs and DFF outputs are level 0
}

// Circuit is an immutable gate-level netlist. Build one with Parse or
// Builder; do not mutate Nodes after construction.
type Circuit struct {
	Name  string
	Nodes []Node

	PIs  []NodeID // primary inputs, in declaration order
	POs  []NodeID // nodes whose output is a primary output
	DFFs []NodeID // flip-flops, in declaration order

	byName map[string]NodeID
	order  []NodeID // gates only, topologically sorted by Level
}

// Node returns the node with the given ID. It panics on an invalid ID,
// which always indicates a programming error.
func (c *Circuit) Node(id NodeID) *Node { return &c.Nodes[id] }

// Lookup returns the node named name, or nil.
func (c *Circuit) Lookup(name string) *Node {
	id, ok := c.byName[name]
	if !ok {
		return nil
	}
	return &c.Nodes[id]
}

// LookupID returns the NodeID for name, or None.
func (c *Circuit) LookupID(name string) NodeID {
	id, ok := c.byName[name]
	if !ok {
		return None
	}
	return id
}

// NumNodes returns the total node count (PIs + DFFs + gates).
func (c *Circuit) NumNodes() int { return len(c.Nodes) }

// GateOrder returns the combinational gates in topological order: every
// gate appears after all of its fanin gates. PIs and DFF outputs are the
// sources and do not appear.
func (c *Circuit) GateOrder() []NodeID { return c.order }

// PPIs returns the pseudo primary inputs (the DFF output nodes). In this
// model the DFF node itself is the PPI signal.
func (c *Circuit) PPIs() []NodeID { return c.DFFs }

// PPOs returns the pseudo primary outputs: the D-input signals of the DFFs,
// in DFF declaration order.
func (c *Circuit) PPOs() []NodeID {
	ppos := make([]NodeID, len(c.DFFs))
	for i, ff := range c.DFFs {
		ppos[i] = c.Nodes[ff].Fanin[0]
	}
	return ppos
}

// finish computes fanout lists, levels and the topological gate order, and
// validates structural sanity. It is called by Parse and Builder.Build.
func (c *Circuit) finish() error {
	// Fanout lists: one entry per connection, so a gate reading the same
	// signal twice contributes two branches.
	for i := range c.Nodes {
		c.Nodes[i].Fanout = c.Nodes[i].Fanout[:0]
	}
	for i := range c.Nodes {
		n := &c.Nodes[i]
		for _, in := range n.Fanin {
			if in < 0 || int(in) >= len(c.Nodes) {
				return fmt.Errorf("netlist: %s: node %q has invalid fanin", c.Name, n.Name)
			}
			c.Nodes[in].Fanout = append(c.Nodes[in].Fanout, n.ID)
		}
	}
	// Arity checks.
	for i := range c.Nodes {
		n := &c.Nodes[i]
		switch n.Type {
		case Input:
			if len(n.Fanin) != 0 {
				return fmt.Errorf("netlist: %s: input %q has fanin", c.Name, n.Name)
			}
		case DFF, Buf, Not:
			if len(n.Fanin) != 1 {
				return fmt.Errorf("netlist: %s: %s %q needs exactly 1 fanin, has %d",
					c.Name, n.Type, n.Name, len(n.Fanin))
			}
		default:
			if len(n.Fanin) < 2 {
				return fmt.Errorf("netlist: %s: %s %q needs at least 2 fanins, has %d",
					c.Name, n.Type, n.Name, len(n.Fanin))
			}
		}
	}
	return c.levelize()
}

// levelize assigns combinational levels (sources at 0) and computes the
// topological gate order. It rejects combinational cycles.
func (c *Circuit) levelize() error {
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make([]uint8, len(c.Nodes))
	c.order = c.order[:0]

	var visit func(id NodeID) error
	visit = func(id NodeID) error {
		n := &c.Nodes[id]
		if n.Type == Input || n.Type == DFF {
			// Sources break sequential cycles: a DFF's D input is justified
			// in the previous time frame, not combinationally.
			n.Level = 0
			state[id] = done
			return nil
		}
		switch state[id] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("netlist: %s: combinational cycle through %q", c.Name, n.Name)
		}
		state[id] = visiting
		lvl := int32(0)
		for _, in := range n.Fanin {
			if err := visit(in); err != nil {
				return err
			}
			if l := c.Nodes[in].Level; l+1 > lvl {
				lvl = l + 1
			}
		}
		n.Level = lvl
		state[id] = done
		c.order = append(c.order, id)
		return nil
	}
	for i := range c.Nodes {
		if err := visit(NodeID(i)); err != nil {
			return err
		}
	}
	// A DFS postorder is already topological; additionally sort by level to
	// make evaluation order deterministic and cache-friendly.
	sort.SliceStable(c.order, func(i, j int) bool {
		return c.Nodes[c.order[i]].Level < c.Nodes[c.order[j]].Level
	})
	return nil
}

// LevelOffsets returns the level-bucket boundaries of GateOrder: the
// gates at combinational level l (1-based; level 0 holds the sources,
// which are not in the order) are GateOrder()[off[l]:off[l+1]]. The
// returned slice has MaxLevel()+2 entries so the indexing is total.
// Event-driven simulation (internal/sim) uses the buckets as the
// worklist levels of its selective-trace kernel.
func (c *Circuit) LevelOffsets() []int32 {
	max := c.MaxLevel()
	off := make([]int32, max+2)
	for _, id := range c.order {
		off[c.Nodes[id].Level+1]++
	}
	for l := int32(1); l < max+2; l++ {
		off[l] += off[l-1]
	}
	return off
}

// MaxLevel returns the deepest combinational level in the circuit.
func (c *Circuit) MaxLevel() int32 {
	var m int32
	for i := range c.Nodes {
		if c.Nodes[i].Level > m {
			m = c.Nodes[i].Level
		}
	}
	return m
}
