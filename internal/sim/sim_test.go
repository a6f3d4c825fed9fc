package sim

import (
	"math/rand"
	"testing"

	"fogbuster/internal/bench"
	"fogbuster/internal/logic"
	"fogbuster/internal/netlist"
)

func TestV3Basics(t *testing.T) {
	if And3(Lo, X) != Lo || And3(Hi, X) != X || And3(Hi, Hi) != Hi {
		t.Error("And3 wrong")
	}
	if Or3(Hi, X) != Hi || Or3(Lo, X) != X || Or3(Lo, Lo) != Lo {
		t.Error("Or3 wrong")
	}
	if Xor3(Hi, X) != X || Xor3(Hi, Lo) != Hi || Xor3(Hi, Hi) != Lo {
		t.Error("Xor3 wrong")
	}
	if Not3(X) != X || Not3(Lo) != Hi {
		t.Error("Not3 wrong")
	}
	if Lo.String() != "0" || Hi.String() != "1" || X.String() != "X" {
		t.Error("String wrong")
	}
	// NAND with a controlling zero dominates unknowns.
	if EvalGate3(netlist.Nand, []V3{Lo, X, X}) != Hi {
		t.Error("NAND(0,X,X) should be 1")
	}
	if EvalGate3(netlist.Nor, []V3{Hi, X}) != Lo {
		t.Error("NOR(1,X) should be 0")
	}
}

func TestEval3C17(t *testing.T) {
	c := bench.NewC17()
	n := NewNet(c)
	// Exhaustive comparison against direct Boolean evaluation.
	for m := 0; m < 32; m++ {
		vec := make([]V3, 5)
		for i := range vec {
			vec[i] = V3((m >> i) & 1)
		}
		vals := n.LoadFrame(vec, nil)
		n.Eval3(vals, nil)
		nand := func(a, b V3) V3 { return Not3(And3(a, b)) }
		g10 := nand(vec[0], vec[2])
		g11 := nand(vec[2], vec[3])
		g16 := nand(vec[1], g11)
		g19 := nand(g11, vec[4])
		want22 := nand(g10, g16)
		want23 := nand(g16, g19)
		out := n.Outputs3(vals)
		if out[0] != want22 || out[1] != want23 {
			t.Fatalf("pattern %05b: got %v/%v want %v/%v", m, out[0], out[1], want22, want23)
		}
	}
}

func TestBranchVsStemInjection(t *testing.T) {
	c := bench.NewS27()
	n := NewNet(c)
	g8 := c.LookupID("G8")

	// Find the branch of G8 feeding G15.
	g15 := c.LookupID("G15")
	branch := -1
	for b, f := range c.Node(g8).Fanout {
		if f == g15 {
			branch = b
		}
	}
	if branch < 0 {
		t.Fatal("no G8->G15 branch")
	}

	// G7=1 makes G12=0, so both OR gates G15/G16 are sensitive to G8;
	// G14=NOT(G0)=1 and G6=1 make G8=1.
	vec := []V3{Lo, Lo, Lo, Lo}
	state := []V3{Lo, Hi, Hi}

	base := n.LoadFrame(vec, state)
	n.Eval3(base, nil)

	// Branch injection changes only the G15 side.
	vals := n.LoadFrame(vec, state)
	n.Eval3(vals, &Inject3{Line: netlist.Line{Node: g8, Branch: branch}, Value: Not3(base[g8])})
	g16 := c.LookupID("G16")
	if vals[g8] != base[g8] {
		t.Error("branch injection must not change the stem value")
	}
	if vals[g16] != base[g16] {
		t.Error("branch injection leaked into the other branch")
	}
	if vals[g15] == base[g15] {
		t.Error("branch injection had no effect on its consumer")
	}

	// Stem injection changes both consumers.
	vals2 := n.LoadFrame(vec, state)
	n.Eval3(vals2, &Inject3{Line: netlist.Stem(g8), Value: Not3(base[g8])})
	if vals2[g8] == base[g8] {
		t.Error("stem injection had no effect")
	}
	if vals2[g15] == base[g15] || vals2[g16] == base[g16] {
		t.Error("stem injection must reach both consumers")
	}
}

func TestPIStemInjection(t *testing.T) {
	c := bench.NewC17()
	n := NewNet(c)
	pi := c.PIs[2] // N3, fans out to two gates
	vec := []V3{Hi, Hi, Hi, Hi, Hi}
	vals := n.LoadFrame(vec, nil)
	n.Eval3(vals, &Inject3{Line: netlist.Stem(pi), Value: Lo})
	if vals[pi] != Lo {
		t.Error("PI stem injection must override the input value")
	}
	if vals[c.LookupID("N10")] != Hi {
		t.Error("NAND(1,0) should be 1 under injection")
	}
}

func TestV5Composite(t *testing.T) {
	for _, v := range []V5{Z5, O5, X5, D5, B5} {
		if got := FromPair(v.Good(), v.Faulty()); got != v {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
	if FromPair(Hi, Lo) != D5 || FromPair(Lo, Hi) != B5 || FromPair(X, Lo) != X5 {
		t.Error("FromPair wrong")
	}
	if !D5.IsD() || !B5.IsD() || X5.IsD() {
		t.Error("IsD wrong")
	}
	// D through NAND with non-controlling side input inverts.
	if EvalGate5(netlist.Nand, []V5{D5, O5}) != B5 {
		t.Error("NAND(D,1) should be D'")
	}
	// D blocked by controlling side input.
	if EvalGate5(netlist.Nand, []V5{D5, Z5}) != O5 {
		t.Error("NAND(D,0) should be 1")
	}
	// D meeting X collapses to X.
	if EvalGate5(netlist.And, []V5{D5, X5}) != X5 {
		t.Error("AND(D,X) should be X")
	}
	if EvalGate5(netlist.Xor, []V5{D5, B5}) != O5 {
		t.Error("XOR(D,D') should be 1")
	}
}

func TestEval5MatchesPairOfEval3(t *testing.T) {
	c := bench.NewS27()
	n := NewNet(c)
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 200; iter++ {
		vec5 := make([]V5, len(c.PIs))
		state5 := make([]V5, len(c.DFFs))
		vecG := make([]V3, len(c.PIs))
		vecF := make([]V3, len(c.PIs))
		stateG := make([]V3, len(c.DFFs))
		stateF := make([]V3, len(c.DFFs))
		for i := range vec5 {
			vec5[i] = V5(rng.Intn(5))
			vecG[i], vecF[i] = vec5[i].Good(), vec5[i].Faulty()
		}
		for i := range state5 {
			state5[i] = V5(rng.Intn(5))
			stateG[i], stateF[i] = state5[i].Good(), state5[i].Faulty()
		}
		vals5 := n.LoadFrame5(vec5, state5)
		n.Eval5(vals5)
		valsG := n.LoadFrame(vecG, stateG)
		n.Eval3(valsG, nil)
		valsF := n.LoadFrame(vecF, stateF)
		n.Eval3(valsF, nil)
		for i := range vals5 {
			want := FromPair(valsG[i], valsF[i])
			// The composite evaluation may be more pessimistic than the
			// pair (X where the pair is known) but never the reverse, and
			// must agree exactly when it reports a known value.
			if vals5[i] != X5 && vals5[i] != want {
				t.Fatalf("node %s: composite %v, pair %v", c.Nodes[i].Name, vals5[i], want)
			}
		}
	}
}

func TestEval8EndpointsMatchTwoFrames(t *testing.T) {
	c := bench.NewS27()
	n := NewNet(c)
	rng := rand.New(rand.NewSource(8))
	for iter := 0; iter < 200; iter++ {
		v1 := randomBits(rng, len(c.PIs))
		v2 := randomBits(rng, len(c.PIs))
		s0 := randomBits(rng, len(c.DFFs))

		// Frame 1 two-valued simulation gives the latched state s1.
		f1 := n.LoadFrame(v1, s0)
		n.Eval3(f1, nil)
		s1 := n.NextState3(f1, nil)

		f2 := n.LoadFrame(v2, s1)
		n.Eval3(f2, nil)

		vals := n.LoadFrame8(v1, v2, s0, s1)
		n.Eval8(logic.Robust, vals, nil)
		for i := range vals {
			if uint8(f1[i]) != vals[i].Initial() {
				t.Fatalf("node %s: initial %v vs frame1 %v", c.Nodes[i].Name, vals[i], f1[i])
			}
			if uint8(f2[i]) != vals[i].Final() {
				t.Fatalf("node %s: final %v vs frame2 %v", c.Nodes[i].Name, vals[i], f2[i])
			}
		}
	}
}

func TestEval8Injection(t *testing.T) {
	c := bench.NewC17()
	n := NewNet(c)
	// Drive N1 0->1 with everything else steady so N10 output falls.
	v1 := []V3{Lo, Hi, Hi, Hi, Hi}
	v2 := []V3{Hi, Hi, Hi, Hi, Hi}
	n1 := c.PIs[0]
	vals := n.LoadFrame8(v1, v2, nil, nil)
	n.Eval8(logic.Robust, vals, &InjectDelay{Line: netlist.Stem(n1), SlowToRise: true})
	if vals[n1] != logic.RiseC {
		t.Fatalf("site value %v, want Rc", vals[n1])
	}
	// N10 = NAND(N1, N3): rising carrying input, steady-1 side -> Fc.
	if got := vals[c.LookupID("N10")]; got != logic.FallC {
		t.Fatalf("N10 = %v, want Fc", got)
	}
	// Wrong transition direction does not excite the fault.
	vals2 := n.LoadFrame8(v1, v2, nil, nil)
	n.Eval8(logic.Robust, vals2, &InjectDelay{Line: netlist.Stem(n1), SlowToRise: false})
	if vals2[n1] != logic.Rise {
		t.Fatalf("unexcited site value %v, want R", vals2[n1])
	}
}

func TestParallelMatchesScalar(t *testing.T) {
	c := bench.RippleCarryAdder(6)
	n := NewNet(c)
	rng := rand.New(rand.NewSource(64))
	vecW := make([]Word, len(c.PIs))
	for i := range vecW {
		vecW[i] = rng.Uint64()
	}
	valsW := n.LoadFrame64(vecW, nil)
	n.Eval64(valsW)
	for k := 0; k < 64; k++ {
		vec := make([]V3, len(c.PIs))
		for i := range vec {
			vec[i] = V3((vecW[i] >> k) & 1)
		}
		vals := n.LoadFrame(vec, nil)
		n.Eval3(vals, nil)
		for i := range vals {
			if uint64(vals[i]) != (valsW[i]>>k)&1 {
				t.Fatalf("pattern %d node %s: scalar %v parallel %d", k, c.Nodes[i].Name, vals[i], (valsW[i]>>k)&1)
			}
		}
	}
}

func TestSeqSimShiftRegister(t *testing.T) {
	c := bench.ShiftRegister(4)
	n := NewNet(c)
	vectors := [][]V3{{Hi}, {Lo}, {Hi}, {Hi}, {Lo}, {Lo}, {Lo}, {Lo}}
	steps := n.SeqSim3(nil, vectors)
	// After k frames, the serial bit from frame k-4 appears at the output.
	for k := 4; k < len(steps); k++ {
		want := vectors[k-3][0] // output is the last FF, loaded 4 frames ago... verify via state instead
		_ = want
	}
	// The state after frame k is the reversed last-4 input bits.
	last := steps[len(steps)-1].State
	if len(last) != 4 {
		t.Fatalf("state width %d", len(last))
	}
	for i := 0; i < 4; i++ {
		want := vectors[len(vectors)-1-i][0]
		if last[i] != want {
			t.Fatalf("state[%d] = %v, want %v", i, last[i], want)
		}
	}
	// X power-up state drains after 4 frames.
	if steps[2].Outputs[0] != X {
		t.Error("output should still be X before the pipeline fills")
	}
	if steps[7].Outputs[0] == X {
		t.Error("output should be known after the pipeline fills")
	}
}

func TestXFill(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vec := []V3{X, Hi, X, Lo, X}
	got := XFill(vec, rng)
	if got[1] != Hi || got[3] != Lo {
		t.Error("XFill must preserve known values")
	}
	for i, v := range got {
		if !v.Known() {
			t.Errorf("position %d still X", i)
		}
	}
	if KnownCount(vec) != 2 || KnownCount(got) != 5 {
		t.Error("KnownCount wrong")
	}
}

func randomBits(rng *rand.Rand, n int) []V3 {
	out := make([]V3, n)
	for i := range out {
		out[i] = V3(rng.Intn(2))
	}
	return out
}

func TestOnLine(t *testing.T) {
	c := bench.NewS27()
	n := NewNet(c)
	g8 := c.LookupID("G8")
	g15 := c.LookupID("G15")
	// Position of G8 in G15's fanin.
	pos := -1
	for i, f := range c.Node(g15).Fanin {
		if f == g8 {
			pos = i
		}
	}
	if pos < 0 {
		t.Fatal("G8 not a fanin of G15")
	}
	if !n.OnLine(netlist.Stem(g8), g15, pos) {
		t.Error("stem must cover all connections")
	}
	br := n.BranchOf(g15, pos)
	if !n.OnLine(netlist.Line{Node: g8, Branch: br}, g15, pos) {
		t.Error("matching branch must cover the connection")
	}
	if n.OnLine(netlist.Line{Node: g8, Branch: br ^ 1}, g15, pos) {
		t.Error("other branch must not cover the connection")
	}
}
