package sim

import (
	"math/rand"
	"testing"

	"fogbuster/internal/bench"
	"fogbuster/internal/logic"
	"fogbuster/internal/netlist"
)

// This file is the randomized bit-identity contract of the event-driven
// kernels: for every algebra, random vectors, states and injection
// sites on every bench circuit, the selective-trace result must equal
// the full levelized walk value for value. The suite runs under -race
// in CI next to the other invariance suites; -short trims trial counts.

// coneCircuits returns the circuits the cross-checks sweep: every
// Table 3 profile, trimmed to a representative subset under -short.
func coneCircuits(t *testing.T) []*netlist.Circuit {
	var out []*netlist.Circuit
	for _, p := range bench.Profiles {
		if testing.Short() && p.Name != "s27" && p.Name != "s298" && p.Name != "s641" && p.Name != "s1238" {
			continue
		}
		out = append(out, p.Circuit())
	}
	return out
}

func randBits(rng *rand.Rand, n int) []V3 {
	out := make([]V3, n)
	for i := range out {
		out[i] = V3(rng.Intn(2))
	}
	return out
}

func randV3Vec(rng *rand.Rand, n int) []V3 {
	out := make([]V3, n)
	for i := range out {
		out[i] = V3(rng.Intn(3)) // includes X
	}
	return out
}

// sampleLines picks up to max fault sites, always including the first
// and last to cover PIs and deep gates.
func sampleLines(rng *rand.Rand, lines []netlist.Line, max int) []netlist.Line {
	if len(lines) <= max {
		return lines
	}
	out := []netlist.Line{lines[0], lines[len(lines)-1]}
	for len(out) < max {
		out = append(out, lines[rng.Intn(len(lines))])
	}
	return out
}

// TestEval8ConeMatchesFull: injection by selective trace over the
// fault-free values equals a full injected evaluation, for both
// algebras, every polarity, sampled fault sites, on every bench circuit.
func TestEval8ConeMatchesFull(t *testing.T) {
	for _, c := range coneCircuits(t) {
		net := NewNet(c)
		rng := rand.New(rand.NewSource(101))
		lines := c.Lines()
		for trial := 0; trial < 3; trial++ {
			v1, v2 := randBits(rng, len(c.PIs)), randBits(rng, len(c.PIs))
			s0, s1 := randBits(rng, len(c.DFFs)), randBits(rng, len(c.DFFs))
			for _, alg := range []*logic.Algebra{logic.Robust, logic.NonRobust} {
				base := net.LoadFrame8(v1, v2, s0, s1)
				net.Eval8(alg, base, nil)
				evt := make([]logic.Value, len(base))
				for _, l := range sampleLines(rng, lines, 60) {
					for _, str := range []bool{true, false} {
						inj := &InjectDelay{Line: l, SlowToRise: str}
						ref := net.LoadFrame8(v1, v2, s0, s1)
						net.Eval8(alg, ref, inj)
						copy(evt, base)
						net.Eval8Cone(alg, evt, inj)
						for i := range ref {
							if evt[i] != ref[i] {
								t.Fatalf("%s %s line %v str=%v node %d: cone %s, full %s",
									c.Name, alg.Name(), l, str, i, evt[i], ref[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestEval3ConeMatchesFull: re-evaluating only the cones of changed
// sources equals a full three-valued walk, X propagation included.
func TestEval3ConeMatchesFull(t *testing.T) {
	for _, c := range coneCircuits(t) {
		net := NewNet(c)
		rng := rand.New(rand.NewSource(102))
		for trial := 0; trial < 8; trial++ {
			vec, state := randV3Vec(rng, len(c.PIs)), randV3Vec(rng, len(c.DFFs))
			base := net.LoadFrame(vec, state)
			net.Eval3(base, nil)
			// Flip a random subset of sources.
			vec2, state2 := append([]V3(nil), vec...), append([]V3(nil), state...)
			var seeds []netlist.NodeID
			evt := append([]V3(nil), base...)
			for i, pi := range c.PIs {
				if rng.Intn(3) == 0 {
					vec2[i] = V3(rng.Intn(3))
					if vec2[i] != vec[i] {
						evt[pi] = vec2[i]
						seeds = append(seeds, pi)
					}
				}
			}
			for i, ff := range c.DFFs {
				if rng.Intn(3) == 0 {
					state2[i] = V3(rng.Intn(3))
					if state2[i] != state[i] {
						evt[ff] = state2[i]
						seeds = append(seeds, ff)
					}
				}
			}
			net.Eval3Cone(evt, seeds)
			ref := net.LoadFrame(vec2, state2)
			net.Eval3(ref, nil)
			for i := range ref {
				if evt[i] != ref[i] {
					t.Fatalf("%s trial %d node %d: cone %s, full %s", c.Name, trial, i, evt[i], ref[i])
				}
			}
		}
	}
}

// TestEval5ConeMatchesFull: the propagation search's delta update (a
// changed PI assignment, including un-assignment back to X) equals a
// full composite-domain walk, with D/D' state bits in play.
func TestEval5ConeMatchesFull(t *testing.T) {
	vals5 := []V5{Z5, O5, X5, D5, B5}
	for _, c := range coneCircuits(t) {
		net := NewNet(c)
		rng := rand.New(rand.NewSource(103))
		for trial := 0; trial < 8; trial++ {
			assign := make([]V5, len(c.PIs))
			for i := range assign {
				assign[i] = []V5{Z5, O5, X5}[rng.Intn(3)]
			}
			state := make([]V5, len(c.DFFs))
			for i := range state {
				state[i] = vals5[rng.Intn(len(vals5))]
			}
			base := net.LoadFrame5(assign, state)
			net.Eval5(base)
			assign2 := append([]V5(nil), assign...)
			var seeds []netlist.NodeID
			evt := append([]V5(nil), base...)
			for i, pi := range c.PIs {
				if rng.Intn(3) == 0 {
					assign2[i] = []V5{Z5, O5, X5}[rng.Intn(3)]
					if assign2[i] != assign[i] {
						evt[pi] = assign2[i]
						seeds = append(seeds, pi)
					}
				}
			}
			net.Eval5Cone(evt, seeds)
			ref := net.LoadFrame5(assign2, state)
			net.Eval5(ref)
			for i := range ref {
				if evt[i] != ref[i] {
					t.Fatalf("%s trial %d node %d: cone %s, full %s", c.Name, trial, i, evt[i], ref[i])
				}
			}
		}
	}
}

// TestEvalCarry64ConeMatchesFull: a batch of 64 random delay injections
// produces identical carry rails on the sparse and full paths, and
// ResetCarry64 restores the all-zero baseline so back-to-back batches on
// one Net stay exact.
func TestEvalCarry64ConeMatchesFull(t *testing.T) {
	for _, c := range coneCircuits(t) {
		net := NewNet(c)
		inj := net.NewInjectDelay64()
		rng := rand.New(rand.NewSource(105))
		lines := c.Lines()
		Cfull := make([]Word, len(c.Nodes))
		Cevt := make([]Word, len(c.Nodes))
		for _, alg := range []*logic.Algebra{logic.Robust, logic.NonRobust} {
			for trial := 0; trial < 4; trial++ {
				v1, v2 := randBits(rng, len(c.PIs)), randBits(rng, len(c.PIs))
				s0, s1 := randBits(rng, len(c.DFFs)), randBits(rng, len(c.DFFs))
				vals := net.LoadFrame8(v1, v2, s0, s1)
				net.Eval8(alg, vals, nil)
				inj.Reset()
				for b := 0; b < 64; b++ {
					inj.Add(uint(b), lines[rng.Intn(len(lines))], rng.Intn(2) == 0)
				}
				net.EvalCarry64(alg, vals, Cfull, inj)
				net.EvalCarry64Cone(alg, vals, Cevt, inj)
				for i := range Cfull {
					if Cevt[i] != Cfull[i] {
						t.Fatalf("%s %s trial %d node %d: cone %x, full %x",
							c.Name, alg.Name(), trial, i, Cevt[i], Cfull[i])
					}
				}
				net.ResetCarry64(Cevt)
				for i, w := range Cevt {
					if w != 0 {
						t.Fatalf("%s: ResetCarry64 left node %d at %x", c.Name, i, w)
					}
				}
			}
		}
	}
}

// TestEval64DROverlayMatchesFull: the dual-rail overlay over a scalar
// baseline equals the full 64-way dual-rail evaluation at every marked
// node, and every unmarked node provably equals the broadcast baseline.
func TestEval64DROverlayMatchesFull(t *testing.T) {
	for _, c := range coneCircuits(t) {
		net := NewNet(c)
		full := net.NewFrame64()
		ov := net.NewFrame64()
		rng := rand.New(rand.NewSource(106))
		for trial := 0; trial < 8; trial++ {
			vec, state := randV3Vec(rng, len(c.PIs)), randV3Vec(rng, len(c.DFFs))
			gv := net.LoadFrame(vec, state)
			net.Eval3(gv, nil)

			net.LoadFrame64DR(full, vec, state)
			for _, ff := range c.DFFs {
				// Random per-machine divergence on a subset of flip-flops
				// (keeping V&^K == 0, the dual-rail wellformedness).
				if rng.Intn(2) == 0 {
					k := Word(rng.Uint64())
					v := Word(rng.Uint64()) & k
					full.V[ff], full.K[ff] = v, k
					bv, bk := Broadcast64(gv[ff])
					if v != bv || k != bk {
						net.Overlay64Set(ov, ff, v, k)
					}
				}
			}
			net.Eval64DROverlay(ov, gv)
			ref := net.NewFrame64()
			copy(ref.V, full.V)
			copy(ref.K, full.K)
			net.Eval64DR(ref, nil)
			for i := range c.Nodes {
				id := netlist.NodeID(i)
				var v, k Word
				if net.Overlay64Marked(id) {
					v, k = ov.V[id], ov.K[id]
				} else {
					v, k = Broadcast64(gv[id])
				}
				if v != ref.V[id] || k != ref.K[id] {
					t.Fatalf("%s trial %d node %d (marked=%v): overlay (%x,%x), full (%x,%x)",
						c.Name, trial, i, net.Overlay64Marked(id), v, k, ref.V[id], ref.K[id])
				}
			}
			net.Overlay64Reset()
		}
	}
}
