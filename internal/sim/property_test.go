package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fogbuster/internal/bench"
	"fogbuster/internal/logic"
)

// TestEval8EndpointsProperty is the central cross-simulator invariant as a
// property test: for any binary stimulus of any Table 3 circuit, the
// eight-valued two-frame evaluation must project exactly onto the two
// independent binary frame simulations. quick drives the stimulus.
func TestEval8EndpointsProperty(t *testing.T) {
	circuits := []string{"s27", "s298", "s344"}
	nets := make([]*Net, len(circuits))
	for i, name := range circuits {
		nets[i] = NewNet(bench.ProfileByName(name).Circuit())
	}
	f := func(pick uint8, seed int64) bool {
		net := nets[int(pick)%len(nets)]
		c := net.C
		rng := rand.New(rand.NewSource(seed))
		bits := func(n int) []V3 {
			out := make([]V3, n)
			for i := range out {
				out[i] = V3(rng.Intn(2))
			}
			return out
		}
		v1, v2, s0 := bits(len(c.PIs)), bits(len(c.PIs)), bits(len(c.DFFs))
		f1 := net.LoadFrame(v1, s0)
		net.Eval3(f1, nil)
		s1 := net.NextState3(f1, nil)
		f2 := net.LoadFrame(v2, s1)
		net.Eval3(f2, nil)

		vals := net.LoadFrame8(v1, v2, s0, s1)
		net.Eval8(logic.Robust, vals, nil)
		for i := range vals {
			if uint8(f1[i]) != vals[i].Initial() || uint8(f2[i]) != vals[i].Final() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestParallelScalarProperty: the 64-way dual-rail simulator with every
// input rail known agrees with the scalar one on arbitrary patterns of
// arbitrary suite circuits, and every node stays known.
func TestParallelScalarProperty(t *testing.T) {
	net := NewNet(bench.ProfileByName("s386").Circuit())
	c := net.C
	frame := net.NewFrame64()
	f := func(seed int64, lane uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		vecW := make([]Word, len(c.PIs))
		stateW := make([]Word, len(c.DFFs))
		for i := range vecW {
			vecW[i] = rng.Uint64()
		}
		for i := range stateW {
			stateW[i] = rng.Uint64()
		}
		for i, pi := range c.PIs {
			frame.V[pi], frame.K[pi] = vecW[i], AllOnes
		}
		for i, ff := range c.DFFs {
			frame.V[ff], frame.K[ff] = stateW[i], AllOnes
		}
		net.Eval64DR(frame, nil)
		for _, k := range frame.K {
			if k != AllOnes {
				return false
			}
		}
		valsW := frame.V

		k := uint(lane) % 64
		vec := make([]V3, len(c.PIs))
		state := make([]V3, len(c.DFFs))
		for i := range vec {
			vec[i] = V3((vecW[i] >> k) & 1)
		}
		for i := range state {
			state[i] = V3((stateW[i] >> k) & 1)
		}
		vals := net.LoadFrame(vec, state)
		net.Eval3(vals, nil)
		for i := range vals {
			if uint64(vals[i]) != (valsW[i]>>k)&1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestXMonotonicityProperty: three-valued simulation is monotone in
// information: replacing an X input by a binary value can change an X
// node to known but never flip a known node. This is the property that
// makes the unjustifiable-don't-care treatment of SEMILET sound.
func TestXMonotonicityProperty(t *testing.T) {
	net := NewNet(bench.ProfileByName("s349").Circuit())
	c := net.C
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vec := make([]V3, len(c.PIs))
		state := make([]V3, len(c.DFFs))
		for i := range vec {
			vec[i] = V3(rng.Intn(3)) // 0, 1 or X
		}
		for i := range state {
			state[i] = V3(rng.Intn(3))
		}
		base := net.LoadFrame(vec, state)
		net.Eval3(base, nil)

		refined := make([]V3, len(vec))
		for i, v := range vec {
			if v == X {
				refined[i] = V3(rng.Intn(2))
			} else {
				refined[i] = v
			}
		}
		refinedState := make([]V3, len(state))
		for i, v := range state {
			if v == X {
				refinedState[i] = V3(rng.Intn(2))
			} else {
				refinedState[i] = v
			}
		}
		vals := net.LoadFrame(refined, refinedState)
		net.Eval3(vals, nil)
		for i := range vals {
			if base[i] != X && base[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
