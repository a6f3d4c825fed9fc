package sim

import (
	"math/rand"
	"testing"

	"fogbuster/internal/netlist"
)

// drTestCircuit builds a small sequential circuit with every gate type,
// reconvergent fanout and a multi-branch stem, so the dual-rail evaluator
// is exercised on all the paths that matter.
func drTestCircuit(t *testing.T) *netlist.Circuit {
	t.Helper()
	b := netlist.NewBuilder("dr")
	b.Input("a")
	b.Input("b")
	b.Input("c")
	b.DFF("q", "nd")
	b.Gate("w", netlist.And, "a", "b")
	b.Gate("x", netlist.Nand, "w", "c")
	b.Gate("y", netlist.Nor, "w", "q")
	b.Gate("z", netlist.Xor, "x", "y")
	b.Gate("v", netlist.Xnor, "z", "a")
	b.Gate("u", netlist.Not, "w")
	b.Gate("nd", netlist.Or, "v", "u")
	b.Output("z")
	b.Output("nd")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// allLines enumerates every stem and every fanout branch of the circuit.
func allLines(c *netlist.Circuit) []netlist.Line {
	var lines []netlist.Line
	for i := range c.Nodes {
		id := netlist.NodeID(i)
		lines = append(lines, netlist.Stem(id))
		for b := range c.Nodes[i].Fanout {
			lines = append(lines, netlist.Line{Node: id, Branch: b})
		}
	}
	return lines
}

func randV3(rng *rand.Rand) V3 { return V3(rng.Intn(3)) }

// decodeDR extracts machine k's three-valued value from the dual rails.
func decodeDR(v, k Word, bit uint) V3 {
	if k&(1<<bit) == 0 {
		return X
	}
	return V3((v >> bit) & 1)
}

// TestEval64DRMatchesEval3 cross-checks the 64-way dual-rail evaluator
// against the scalar three-valued evaluator: 64 machines with independent
// random stuck injections (including none) must reproduce Eval3 with the
// corresponding Inject3 bit-for-bit on every node, including X
// propagation, plus the injected next state.
func TestEval64DRMatchesEval3(t *testing.T) {
	c := drTestCircuit(t)
	n := NewNet(c)
	lines := allLines(c)
	rng := rand.New(rand.NewSource(11))

	frame := n.NewFrame64()
	inj := n.NewInject64()
	nextV := make([]Word, len(c.DFFs))
	nextK := make([]Word, len(c.DFFs))

	for round := 0; round < 50; round++ {
		vec := make([]V3, len(c.PIs))
		for i := range vec {
			vec[i] = randV3(rng)
		}
		state := make([]V3, len(c.DFFs))
		for i := range state {
			state[i] = randV3(rng)
		}

		// Machine 0 runs fault free; the rest get random injections.
		inj.Reset()
		scalar := make([]*Inject3, 64)
		for b := 1; b < 64; b++ {
			l := lines[rng.Intn(len(lines))]
			v := V3(rng.Intn(2))
			inj.Add(uint(b), l, v)
			scalar[b] = &Inject3{Line: l, Value: v}
		}

		n.LoadFrame64DR(frame, vec, state)
		n.Eval64DR(frame, inj)
		n.NextState64DR(frame, inj, nextV, nextK)

		for b := 0; b < 64; b++ {
			vals := n.LoadFrame(vec, state)
			n.Eval3(vals, scalar[b])
			for id := range c.Nodes {
				got := decodeDR(frame.V[id], frame.K[id], uint(b))
				if got != vals[id] {
					t.Fatalf("round %d machine %d node %s: dual-rail %s, scalar %s",
						round, b, c.Nodes[id].Name, got, vals[id])
				}
			}
			next := n.NextState3(vals, scalar[b])
			for i := range next {
				got := decodeDR(nextV[i], nextK[i], uint(b))
				if got != next[i] {
					t.Fatalf("round %d machine %d ppo %d: dual-rail %s, scalar %s",
						round, b, i, got, next[i])
				}
			}
		}
	}
}
