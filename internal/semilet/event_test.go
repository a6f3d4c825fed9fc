package semilet

import (
	"math/rand"
	"testing"

	"fogbuster/internal/bench"
	"fogbuster/internal/sim"
)

// TestPropagateEventMatchesFullEval: the propagation search's delta
// evaluation (only the changed PI's cone per decision) must walk exactly
// the same search tree as the full-eval oracle — same status, same
// vectors, same observing PO, same backtrack count — over random
// composite handoff states on sequential bench circuits.
func TestPropagateEventMatchesFullEval(t *testing.T) {
	vals5 := []sim.V5{sim.Z5, sim.O5, sim.X5, sim.D5, sim.B5}
	for _, name := range []string{"s298", "s641"} {
		c := bench.ProfileByName(name).Circuit()
		evt := NewEngine(sim.NewNet(c), Options{})
		full := NewEngine(sim.NewNet(c), Options{FullEval: true})
		rng := rand.New(rand.NewSource(31))
		for trial := 0; trial < 30; trial++ {
			state := make([]sim.V5, len(c.DFFs))
			for i := range state {
				state[i] = vals5[rng.Intn(len(vals5))]
			}
			state[rng.Intn(len(state))] = sim.D5 // ensure an effect to drive
			be, bf := NewBudget(100), NewBudget(100)
			re, se := evt.Propagate(append([]sim.V5(nil), state...), be)
			rf, sf := full.Propagate(append([]sim.V5(nil), state...), bf)
			if se != sf || be.Used != bf.Used {
				t.Fatalf("%s trial %d: event (%v, %d backtracks), full (%v, %d backtracks)",
					name, trial, se, be.Used, sf, bf.Used)
			}
			if se != Success {
				continue
			}
			if re.PO != rf.PO || len(re.Vectors) != len(rf.Vectors) {
				t.Fatalf("%s trial %d: event PO %d/%d frames, full PO %d/%d frames",
					name, trial, re.PO, len(re.Vectors), rf.PO, len(rf.Vectors))
			}
			for k := range re.Vectors {
				for j := range re.Vectors[k] {
					if re.Vectors[k][j] != rf.Vectors[k][j] {
						t.Fatalf("%s trial %d: vectors diverge at frame %d bit %d", name, trial, k, j)
					}
				}
			}
		}
	}
}
