package sim

import (
	"fmt"

	"fogbuster/internal/netlist"
)

// Topology is the immutable, structure-of-arrays simulation view of a
// circuit: flat CSR fanin/fanout edge arrays and the level-bucketed gate
// order. It holds no scratch and no lazily built state, so one Topology
// per circuit can be shared by any number of worker Nets (core builds
// exactly one and hands it to every worker).
//
// The flat fanin index IS the edge number used by the 64-way injectors:
// edge = FaninOff[id] + input position. Fanout entries mirror
// netlist.Node.Fanout ordering exactly, so FanoutNode[FanoutOff[n]+b] is
// the consumer of branch b of node n and FanoutEdge the flat edge that
// connection feeds — branch faults resolve in O(1) instead of scanning
// the consumer's fanin list.
type Topology struct {
	C *netlist.Circuit

	// Fanin CSR: node id's connections are the flat indices
	// FaninOff[id] .. FaninOff[id+1] into Fanin (the driving node) and
	// FaninBranch (the driver's fanout branch this connection is).
	FaninOff    []int32
	Fanin       []netlist.NodeID
	FaninBranch []int32

	// Fanout CSR: branch b of node id is the entry FanoutOff[id]+b.
	FanoutOff  []int32
	FanoutNode []netlist.NodeID
	FanoutEdge []int32

	// Order is the topological gate order (Circuit.GateOrder); LevelOff
	// buckets it by combinational level: gates at level l are
	// Order[LevelOff[l]:LevelOff[l+1]]. Level holds every node's level.
	Order    []netlist.NodeID
	LevelOff []int32
	Level    []int32

	// Types is the per-node gate type, hoisted out of the Node structs so
	// the evaluation loops touch only flat arrays.
	Types []netlist.GateType

	// MaxFanin sizes evaluation scratch; MaxLevel sizes the worklist.
	MaxFanin int
	MaxLevel int32
}

// NewTopology builds the simulation view of the circuit. Construction is
// linear in the circuit size.
func NewTopology(c *netlist.Circuit) *Topology {
	n := len(c.Nodes)
	t := &Topology{
		C:        c,
		FaninOff: make([]int32, n+1),
		Order:    c.GateOrder(),
		LevelOff: c.LevelOffsets(),
		Level:    make([]int32, n),
		Types:    make([]netlist.GateType, n),
		MaxLevel: c.MaxLevel(),
	}
	edges := 0
	for i := range c.Nodes {
		node := &c.Nodes[i]
		t.FaninOff[i] = int32(edges)
		edges += len(node.Fanin)
		if len(node.Fanin) > t.MaxFanin {
			t.MaxFanin = len(node.Fanin)
		}
		t.Level[i] = node.Level
		t.Types[i] = node.Type
	}
	t.FaninOff[n] = int32(edges)

	t.Fanin = make([]netlist.NodeID, edges)
	t.FaninBranch = make([]int32, edges)
	t.FanoutOff = make([]int32, n+1)
	t.FanoutNode = make([]netlist.NodeID, edges)
	t.FanoutEdge = make([]int32, edges)
	off := int32(0)
	for i := range c.Nodes {
		t.FanoutOff[i] = off
		off += int32(len(c.Nodes[i].Fanout))
	}
	t.FanoutOff[n] = off
	// The branch numbering must mirror netlist's fanout construction:
	// connections enumerated by consumer ID, then input position.
	counter := make([]int32, n)
	for i := range c.Nodes {
		node := &c.Nodes[i]
		for pos, in := range node.Fanin {
			e := t.FaninOff[i] + int32(pos)
			b := counter[in]
			counter[in]++
			t.Fanin[e] = in
			t.FaninBranch[e] = b
			t.FanoutNode[t.FanoutOff[in]+b] = netlist.NodeID(i)
			t.FanoutEdge[t.FanoutOff[in]+b] = e
		}
	}
	return t
}

// NumNodes returns the node count of the underlying circuit.
func (t *Topology) NumNodes() int { return len(t.C.Nodes) }

// NumEdges returns the total fanin connection count of the circuit.
func (t *Topology) NumEdges() int { return len(t.Fanin) }

// EdgeOf returns the flat edge index of the connection feeding input
// position pos of node id.
func (t *Topology) EdgeOf(id netlist.NodeID, pos int) int {
	return int(t.FaninOff[id]) + pos
}

// BranchOf returns the fanout branch index of the connection feeding
// input position pos of node id.
func (t *Topology) BranchOf(id netlist.NodeID, pos int) int {
	return int(t.FaninBranch[int(t.FaninOff[id])+pos])
}

// BranchEdge returns the consumer node and flat edge index of fanout
// branch b of node id, in O(1) via the fanout CSR.
func (t *Topology) BranchEdge(id netlist.NodeID, b int) (netlist.NodeID, int) {
	k := t.FanoutOff[id] + int32(b)
	return t.FanoutNode[k], int(t.FanoutEdge[k])
}

// OnLine reports whether the connection feeding input position pos of
// node id lies on the given line: either the line is the driver's stem,
// or it is exactly this branch.
func (t *Topology) OnLine(l netlist.Line, id netlist.NodeID, pos int) bool {
	e := int(t.FaninOff[id]) + pos
	if t.Fanin[e] != l.Node {
		return false
	}
	return l.IsStem() || int(t.FaninBranch[e]) == l.Branch
}

// lineEdge resolves an injection line to the flat edge it sits on, or -1
// for a stem line (which converts the driver's value, not a connection)
// and for an out-of-range branch — the latter matches the pre-CSR
// behavior, where a dangling branch line simply never matched any
// connection and the injection was a no-op.
func (t *Topology) lineEdge(l netlist.Line) int {
	if l.IsStem() || l.Branch < 0 || int32(l.Branch) >= t.FanoutOff[l.Node+1]-t.FanoutOff[l.Node] {
		return -1
	}
	return int(t.FanoutEdge[t.FanoutOff[l.Node]+int32(l.Branch)])
}

// ConeGates returns, for every node, the number of combinational gates
// in its fanout cone: the node itself when it is a gate, plus every gate
// reachable from it through gate-only paths. Flip-flop consumers do not
// extend a cone, exactly as the frame boundary stops the levelized
// evaluation. A cone's gate count bounds the work of one event-driven
// re-evaluation seeded at that node. Nothing is cached: each call runs
// one breadth-first search per node over the fanout CSR, sharing a
// single mark array.
func (t *Topology) ConeGates() []int {
	n := t.NumNodes()
	out := make([]int, n)
	mark := make([]int32, n) // mark[id] == src+1: id already reached from src
	var queue []netlist.NodeID
	for src := range out {
		epoch := int32(src + 1)
		mark[src] = epoch
		queue = append(queue[:0], netlist.NodeID(src))
		for head := 0; head < len(queue); head++ {
			x := queue[head]
			for e := t.FanoutOff[x]; e < t.FanoutOff[x+1]; e++ {
				y := t.FanoutNode[e]
				if t.Types[y].IsGate() && mark[y] != epoch {
					mark[y] = epoch
					queue = append(queue, y)
				}
			}
		}
		out[src] = len(queue) - 1
		if t.Types[src].IsGate() {
			out[src]++
		}
	}
	return out
}

// ConePolicy has no values and selects nothing. It, ParseConePolicy and
// SetConePolicy remain only because benchmark/replay.go still calls
// them; they can go together with those calls.
type ConePolicy struct{}

// ParseConePolicy accepts only the empty name and returns the zero
// ConePolicy; any other name is an error, since no policy remains to
// select.
func ParseConePolicy(s string) (ConePolicy, error) {
	if s != "" {
		return ConePolicy{}, fmt.Errorf("sim: cone-set policy %q no longer exists", s)
	}
	return ConePolicy{}, nil
}

// SetConePolicy does nothing: a Topology has no cone-set cache to
// configure.
func (t *Topology) SetConePolicy(ConePolicy) {}
