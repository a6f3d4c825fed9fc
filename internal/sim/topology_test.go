package sim

import (
	"testing"

	"fogbuster/internal/bench"
	"fogbuster/internal/logic"
	"fogbuster/internal/netlist"
)

// TestTopologyMatchesNetlist pins the CSR view against the pointer-based
// netlist on every Table 3 circuit: flat fanin/fanout arrays, branch
// numbering, edge indexing, level buckets and OnLine semantics must all
// agree with the reference definitions.
func TestTopologyMatchesNetlist(t *testing.T) {
	for _, p := range bench.Profiles {
		c := p.Circuit()
		topo := NewTopology(c)
		if topo.NumNodes() != len(c.Nodes) {
			t.Fatalf("%s: node count", c.Name)
		}
		// Reference branch numbering: the counter construction the
		// jagged pre-CSR view used.
		counter := make([]int32, len(c.Nodes))
		refBranch := make([][]int32, len(c.Nodes))
		edges := 0
		for i := range c.Nodes {
			node := &c.Nodes[i]
			br := make([]int32, len(node.Fanin))
			for j, in := range node.Fanin {
				br[j] = counter[in]
				counter[in]++
			}
			refBranch[i] = br
			edges += len(node.Fanin)
		}
		if topo.NumEdges() != edges {
			t.Fatalf("%s: edge count %d, want %d", c.Name, topo.NumEdges(), edges)
		}
		for i := range c.Nodes {
			id := netlist.NodeID(i)
			node := &c.Nodes[i]
			if got := int(topo.FaninOff[i+1] - topo.FaninOff[i]); got != len(node.Fanin) {
				t.Fatalf("%s node %d: fanin count %d, want %d", c.Name, i, got, len(node.Fanin))
			}
			for pos, in := range node.Fanin {
				e := topo.EdgeOf(id, pos)
				if topo.Fanin[e] != in {
					t.Fatalf("%s node %d pos %d: CSR fanin %d, want %d", c.Name, i, pos, topo.Fanin[e], in)
				}
				if got := topo.BranchOf(id, pos); got != int(refBranch[i][pos]) {
					t.Fatalf("%s node %d pos %d: branch %d, want %d", c.Name, i, pos, got, refBranch[i][pos])
				}
			}
			if got := int(topo.FanoutOff[i+1] - topo.FanoutOff[i]); got != len(node.Fanout) {
				t.Fatalf("%s node %d: fanout count %d, want %d", c.Name, i, got, len(node.Fanout))
			}
			for b, consumer := range node.Fanout {
				gotC, gotE := topo.BranchEdge(id, b)
				if gotC != consumer {
					t.Fatalf("%s node %d branch %d: consumer %d, want %d", c.Name, i, b, gotC, consumer)
				}
				// The edge must point back at this exact connection.
				if topo.Fanin[gotE] != id || topo.BranchOf(consumer, gotE-int(topo.FaninOff[consumer])) != b {
					t.Fatalf("%s node %d branch %d: edge %d does not round-trip", c.Name, i, b, gotE)
				}
			}
			if topo.Level[i] != node.Level || topo.Types[i] != node.Type {
				t.Fatalf("%s node %d: SoA level/type mismatch", c.Name, i)
			}
		}
		// Level buckets tile GateOrder exactly.
		order := c.GateOrder()
		seen := 0
		for l := int32(0); l <= topo.MaxLevel; l++ {
			for _, id := range order[topo.LevelOff[l]:topo.LevelOff[l+1]] {
				if c.Nodes[id].Level != l {
					t.Fatalf("%s: gate %d in bucket %d has level %d", c.Name, id, l, c.Nodes[id].Level)
				}
				seen++
			}
		}
		if seen != len(order) {
			t.Fatalf("%s: buckets cover %d of %d gates", c.Name, seen, len(order))
		}
	}
}

// TestDanglingBranchInjectionIsNoOp pins the pre-CSR semantics of a
// branch line that names no real connection (Branch beyond the fanout
// count): the old per-input OnLine scan never matched it, so the
// injection was a harmless no-op — it must neither hit a neighboring
// node's edge nor panic on the new flat fanout indexing.
func TestDanglingBranchInjectionIsNoOp(t *testing.T) {
	c := bench.NewS27()
	net := NewNet(c)
	// A mid-circuit node (not the last, so the CSR has entries beyond
	// its range) with a branch index past its fanout list.
	var victim netlist.NodeID = -1
	for i := range c.Nodes {
		if len(c.Nodes[i].Fanout) > 0 && int(i) < len(c.Nodes)-1 {
			victim = netlist.NodeID(i)
		}
	}
	bad := netlist.Line{Node: victim, Branch: len(c.Nodes[victim].Fanout) + 1}

	vec := make([]V3, len(c.PIs))
	state := make([]V3, len(c.DFFs))
	ref := net.LoadFrame(vec, state)
	net.Eval3(ref, nil)
	got := net.LoadFrame(vec, state)
	net.Eval3(got, &Inject3{Line: bad, Value: Hi})
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("dangling branch injection changed node %d", i)
		}
	}

	bits := make([]V3, len(c.PIs))
	sbits := make([]V3, len(c.DFFs))
	ref8 := net.LoadFrame8(bits, bits, sbits, sbits)
	net.Eval8(logic.Robust, ref8, nil)
	got8 := net.LoadFrame8(bits, bits, sbits, sbits)
	inj := &InjectDelay{Line: bad, SlowToRise: true}
	net.Eval8(logic.Robust, got8, inj)
	evt8 := append([]logic.Value(nil), ref8...)
	net.Eval8Cone(logic.Robust, evt8, inj)
	for i := range ref8 {
		if got8[i] != ref8[i] || evt8[i] != ref8[i] {
			t.Fatalf("dangling branch delay injection changed node %d", i)
		}
	}
}

// TestConeMembership pins the per-node cone gate counts against
// brute-force forward reachability through combinational gates
// (flip-flop consumers stop the cone, like the frame boundary stops
// evaluation).
func TestConeMembership(t *testing.T) {
	for _, name := range []string{"s27", "s298"} {
		c := bench.ProfileByName(name).Circuit()
		counts := NewTopology(c).ConeGates()
		for src := range c.Nodes {
			reach := make([]bool, len(c.Nodes))
			reach[src] = true
			var visit func(id netlist.NodeID)
			visit = func(id netlist.NodeID) {
				for _, consumer := range c.Nodes[id].Fanout {
					if !c.Nodes[consumer].Type.IsGate() || reach[consumer] {
						continue
					}
					reach[consumer] = true
					visit(consumer)
				}
			}
			visit(netlist.NodeID(src))
			gates := 0
			for id := range c.Nodes {
				if reach[id] && c.Nodes[id].Type.IsGate() {
					gates++
				}
			}
			if counts[src] != gates {
				t.Fatalf("%s: ConeGates()[%d] = %d, want %d", name, src, counts[src], gates)
			}
		}
	}
}

// TestConePolicyParse pins the leftover policy shim: the empty name
// parses (benchmark/replay.go relies on it), and every former policy
// name is rejected because no policy remains to select.
func TestConePolicyParse(t *testing.T) {
	if _, err := ParseConePolicy(""); err != nil {
		t.Fatalf(`ParseConePolicy("") = %v`, err)
	}
	for _, name := range []string{"auto", "dense", "compressed"} {
		if _, err := ParseConePolicy(name); err == nil {
			t.Errorf("ParseConePolicy(%q) accepted a removed policy", name)
		}
	}
}
