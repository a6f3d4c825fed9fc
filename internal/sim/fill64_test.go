package sim

import (
	"math/rand"
	"testing"

	"fogbuster/internal/faults"
	"fogbuster/internal/logic"
	"fogbuster/internal/netlist"
)

// packLanes builds the four rail words from 64 lane values.
func packLanes(vals [64]logic.Value) (i, f, h, c Word) {
	for k, v := range vals {
		bit := Word(1) << uint(k)
		if v.Initial() == 1 {
			i |= bit
		}
		if v.Final() == 1 {
			f |= bit
		}
		if v == logic.ZeroH || v == logic.OneH {
			h |= bit
		}
		if v.Carrying() {
			c |= bit
		}
	}
	return
}

// TestFoldFill64ExhaustivePairs drives every 2-input gate type through
// all 64 ordered pairs of algebra values in one fold call — the full
// cross product fits exactly one word — and checks each lane against the
// scalar derived tables, for both algebras.
func TestFoldFill64ExhaustivePairs(t *testing.T) {
	types := []netlist.GateType{
		netlist.And, netlist.Nand, netlist.Or, netlist.Nor,
		netlist.Xor, netlist.Xnor,
	}
	var xs, ys [64]logic.Value
	for a := 0; a < logic.NumValues; a++ {
		for b := 0; b < logic.NumValues; b++ {
			xs[a*8+b] = logic.Value(a)
			ys[a*8+b] = logic.Value(b)
		}
	}
	xi, xf, xh, xc := packLanes(xs)
	yi, yf, yh, yc := packLanes(ys)
	for _, alg := range []*logic.Algebra{logic.Robust, logic.NonRobust} {
		for _, gt := range types {
			got := foldFill64(alg.IsRobust(), gt,
				[]Word{xi, yi}, []Word{xf, yf}, []Word{xh, yh}, []Word{xc, yc})
			for k := 0; k < 64; k++ {
				want := alg.Eval(gt, []logic.Value{xs[k], ys[k]})
				r := Rail64{I: []Word{got.i}, F: []Word{got.f}, H: []Word{got.h}, C: []Word{got.c}}
				if v := r.Lane(0, uint(k)); v != want {
					t.Fatalf("%s %s(%s,%s): lane %d = %s, scalar %s",
						alg.Name(), gt, xs[k], ys[k], k, v, want)
				}
			}
		}
	}
}

// TestFoldFill64Unary checks Buf/Not/DFF pass-through and inversion over
// all eight values.
func TestFoldFill64Unary(t *testing.T) {
	var xs [64]logic.Value
	for k := range xs {
		xs[k] = logic.Value(k % logic.NumValues)
	}
	xi, xf, xh, xc := packLanes(xs)
	for _, gt := range []netlist.GateType{netlist.Buf, netlist.Not, netlist.DFF} {
		got := foldFill64(true, gt, []Word{xi}, []Word{xf}, []Word{xh}, []Word{xc})
		for k := 0; k < 64; k++ {
			want := logic.Robust.Eval(gt, []logic.Value{xs[k]})
			r := Rail64{I: []Word{got.i}, F: []Word{got.f}, H: []Word{got.h}, C: []Word{got.c}}
			if v := r.Lane(0, uint(k)); v != want {
				t.Fatalf("%s(%s): lane %d = %s, scalar %s", gt, xs[k], k, v, want)
			}
		}
	}
}

// TestFoldFill64Wide checks the n-ary left fold (including the trailing
// inversion) against the scalar evaluator on random 3- and 4-input
// combinations.
func TestFoldFill64Wide(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	types := []netlist.GateType{
		netlist.And, netlist.Nand, netlist.Or, netlist.Nor,
		netlist.Xor, netlist.Xnor,
	}
	for _, alg := range []*logic.Algebra{logic.Robust, logic.NonRobust} {
		for trial := 0; trial < 50; trial++ {
			width := 3 + rng.Intn(2)
			lanes := make([][64]logic.Value, width)
			for p := range lanes {
				for k := range lanes[p] {
					lanes[p][k] = logic.Value(rng.Intn(logic.NumValues))
				}
			}
			insI := make([]Word, width)
			insF := make([]Word, width)
			insH := make([]Word, width)
			insC := make([]Word, width)
			for p := range lanes {
				insI[p], insF[p], insH[p], insC[p] = packLanes(lanes[p])
			}
			scratch := make([]logic.Value, width)
			for _, gt := range types {
				got := foldFill64(alg.IsRobust(), gt, insI, insF, insH, insC)
				for k := 0; k < 64; k++ {
					for p := range lanes {
						scratch[p] = lanes[p][k]
					}
					want := alg.Eval(gt, scratch)
					r := Rail64{I: []Word{got.i}, F: []Word{got.f}, H: []Word{got.h}, C: []Word{got.c}}
					if v := r.Lane(0, uint(k)); v != want {
						t.Fatalf("%s %s width %d lane %d: batched %s, scalar %s",
							alg.Name(), gt, width, k, v, want)
					}
				}
			}
		}
	}
}

// TestEvalFill64MatchesEval8 cross-checks the whole-frame rail walk
// against the scalar eight-valued evaluation: 64 independent random
// binary frames per word, one delay fault injected in every lane (the
// decision probe's situation), every node's eight-valued value in lane k
// must equal a scalar Eval8 of frame k, and the capture words must equal
// the scalar capture rule. Both algebras, every fault line, plus the
// fault-free walk.
func TestEvalFill64MatchesEval8(t *testing.T) {
	c := delayTestCircuit(t)
	net := NewNet(c)
	all := faults.AllDelay(c)
	rng := rand.New(rand.NewSource(64))
	r := net.NewRail64()
	goodW := make([]Word, len(c.DFFs))
	faultyW := make([]Word, len(c.DFFs))

	words := func(n int) []Word {
		out := make([]Word, n)
		for i := range out {
			out[i] = Word(rng.Uint64())
		}
		return out
	}
	laneBits := func(w []Word, k uint) []V3 {
		out := make([]V3, len(w))
		for i := range w {
			out[i] = V3(w[i] >> k & 1)
		}
		return out
	}
	injections := []*InjectDelay{nil}
	for _, f := range all {
		injections = append(injections, &InjectDelay{Line: f.Line, SlowToRise: f.Type == faults.SlowToRise})
	}
	for _, alg := range []*logic.Algebra{logic.Robust, logic.NonRobust} {
		for trial := 0; trial < 20; trial++ {
			v1w, v2w := words(len(c.PIs)), words(len(c.PIs))
			s0w, s1w := words(len(c.DFFs)), words(len(c.DFFs))
			for _, inj := range injections {
				// Plain inputs: hazard-free and fault-free in every lane.
				for i, pi := range c.PIs {
					r.I[pi], r.F[pi], r.H[pi], r.C[pi] = v1w[i], v2w[i], 0, 0
				}
				for i, ff := range c.DFFs {
					r.I[ff], r.F[ff], r.H[ff], r.C[ff] = s0w[i], s1w[i], 0, 0
				}
				net.EvalFill64(alg, r, inj)
				det := net.ObserveFill64(r)
				carried := net.NextStateFill64(r, inj, goodW, faultyW)

				for k := uint(0); k < 64; k++ {
					ref := net.LoadFrame8(laneBits(v1w, k), laneBits(v2w, k),
						laneBits(s0w, k), laneBits(s1w, k))
					net.Eval8(alg, ref, inj)
					for id := range c.Nodes {
						if got, want := r.Lane(netlist.NodeID(id), k), ref[id]; got != want {
							t.Fatalf("%s trial %d inj %v lane %d node %d: batched %s, scalar %s",
								alg.Name(), trial, inj, k, id, got, want)
						}
					}
					wantDet := false
					for _, po := range c.POs {
						wantDet = wantDet || ref[po].Carrying()
					}
					if got := det>>k&1 != 0; got != wantDet {
						t.Fatalf("%s trial %d inj %v lane %d: batched PO detect %v, scalar %v",
							alg.Name(), trial, inj, k, got, wantDet)
					}
					next := net.NextState8(ref, inj)
					wantCarried := false
					for i, w := range next {
						var wantG, wantF uint8
						wantG = w.Final()
						if w.Carrying() {
							wantF = w.Initial()
							wantCarried = true
						} else {
							wantF = w.Final()
						}
						if got := goodW[i]>>k&1 != 0; got != (wantG == 1) {
							t.Fatalf("%s trial %d inj %v lane %d FF %d: batched good capture %v, scalar %d",
								alg.Name(), trial, inj, k, i, got, wantG)
						}
						if got := faultyW[i]>>k&1 != 0; got != (wantF == 1) {
							t.Fatalf("%s trial %d inj %v lane %d FF %d: batched faulty capture %v, scalar %d",
								alg.Name(), trial, inj, k, i, got, wantF)
						}
					}
					if got := carried>>k&1 != 0; got != wantCarried {
						t.Fatalf("%s trial %d inj %v lane %d: batched carried %v, scalar %v",
							alg.Name(), trial, inj, k, got, wantCarried)
					}
				}
			}
		}
	}
}

// TestRail64PutLaneRoundTrip pins the lane encode/decode pair over all
// eight values in all 64 lanes.
func TestRail64PutLaneRoundTrip(t *testing.T) {
	c := delayTestCircuit(t)
	r := NewNet(c).NewRail64()
	for k := uint(0); k < 64; k++ {
		for v := logic.Value(0); v < logic.NumValues; v++ {
			r.PutLane(0, k, v)
			if got := r.Lane(0, k); got != v {
				t.Fatalf("lane %d: put %s, got %s", k, v, got)
			}
		}
	}
}
