package sim

import (
	"fogbuster/internal/logic"
	"fogbuster/internal/netlist"
)

// Rail64 is a 64-lane bit-sliced frame of the eight-valued two-frame
// algebra: lane k of every rail word describes one independent machine.
// A value decomposes into exactly four booleans — the settled initial-
// frame bit I, the settled final-frame bit F, the hazard flag H (only on
// steady values) and the fault-effect flag C (only on transitions) — so
// four words per node encode 64 complete eight-valued frames:
//
//	value  I F H C        value  I F H C
//	0      0 0 0 0        0h     0 0 1 0
//	1      1 1 0 0        1h     1 1 1 0
//	R      0 1 0 0        Rc     0 1 0 1
//	F      1 0 0 0        Fc     1 0 0 1
//
// Two invariants hold for every reachable rail state and are preserved
// by the gate kernels: H is set only where I == F, and C only where
// I != F. This is the lane-parallel counterpart of the carry-rail
// encoding of DESIGN.md §6, generalized to lanes whose fault-free
// frames differ (the 64 sampled frames of one tdgen decision probe,
// rather than 64 faults of one frame).
type Rail64 struct {
	I, F, H, C []Word

	// Fanin gather scratch of EvalFill64, sized from the topology.
	insI, insF, insH, insC []Word
}

// NewRail64 allocates a rail frame (plus kernel scratch) for the
// circuit. The buffers are reusable across frames; callers overwrite
// the PI and PPI entries before each EvalFill64 walk and the walk
// overwrites every gate entry.
func (n *Net) NewRail64() *Rail64 {
	nn := len(n.C.Nodes)
	mf := int(n.T.MaxFanin)
	return &Rail64{
		I: make([]Word, nn), F: make([]Word, nn),
		H: make([]Word, nn), C: make([]Word, nn),
		insI: make([]Word, mf), insF: make([]Word, mf),
		insH: make([]Word, mf), insC: make([]Word, mf),
	}
}

// PutLane sets lane k of node id to the value v (test helper).
func (r *Rail64) PutLane(id netlist.NodeID, k uint, v logic.Value) {
	m := Word(1) << k
	set := func(rail []Word, bit bool) {
		if bit {
			rail[id] |= m
		} else {
			rail[id] &^= m
		}
	}
	set(r.I, v.Initial() == 1)
	set(r.F, v.Final() == 1)
	set(r.H, v == logic.ZeroH || v == logic.OneH)
	set(r.C, v.Carrying())
}

// Lane decodes lane k of node id back into an algebra value.
func (r *Rail64) Lane(id netlist.NodeID, k uint) logic.Value {
	m := Word(1) << k
	i, f := r.I[id]&m != 0, r.F[id]&m != 0
	switch {
	case r.C[id]&m != 0:
		if i {
			return logic.FallC
		}
		return logic.RiseC
	case r.H[id]&m != 0:
		if i {
			return logic.OneH
		}
		return logic.ZeroH
	case i && f:
		return logic.One
	case i:
		return logic.Fall
	case f:
		return logic.Rise
	default:
		return logic.Zero
	}
}

// rail is one 64-lane value during a gate fold.
type rail struct{ i, f, h, c Word }

// isZero/isOne lane masks: exactly the plain steady constants.
func (x rail) isZero() Word { return ^x.i & ^x.f & ^x.h }
func (x rail) isOne() Word  { return x.i & x.f & ^x.h }

// not64 mirrors logic.deriveNot: both frame bits invert, hazard and
// fault-effect flags are preserved.
func not64(x rail) rail { return rail{i: ^x.i, f: ^x.f, h: x.h, c: x.c} }

// and64 mirrors logic.deriveAnd lane-parallel. Each lane falls into
// exactly one case of the scalar derivation, selected by priority masks:
// constant dominance/identity first, then the fault-effect rules, then
// the endpoint combination (which is never hazard-free, matching
// FromEndpoints(..., true)).
func and64(robust bool, x, y rail) rail {
	m0 := x.isZero() | y.isZero() // -> 0
	m1 := x.isOne() &^ m0         // -> y
	m2 := y.isOne() &^ (m0 | m1)  // -> x
	rem := ^(m0 | m1 | m2)

	// Fault-effect survival. same: reconvergent effects of the same
	// fault in the same direction reinforce (opposite directions fall
	// through to the endpoint combination, cancelling the effect).
	// ax/ay: logic.andSideAllows — a rising effect (I=0) passes any side
	// ending at one; a falling effect (I=1) needs a steady one under the
	// robust model, or initial-and-final one under the non-robust one.
	same := x.c & y.c &^ (x.i ^ y.i)
	cxo := x.c &^ y.c
	cyo := y.c &^ x.c
	var ax, ay Word
	if robust {
		ax = (^x.i & y.f) | (x.i & y.isOne())
		ay = (^y.i & x.f) | (y.i & x.isOne())
	} else {
		ax = (^x.i & y.f) | (x.i & y.i & y.f)
		ay = (^y.i & x.f) | (y.i & x.i & x.f)
	}
	keepX := rem & (same | (cxo & ax))
	keepY := rem & cyo & ay

	selX := m2 | keepX
	selY := m1 | keepY
	selE := rem &^ (keepX | keepY)
	// Endpoint combination: both inputs non-constant, so equal endpoints
	// cannot be guaranteed hazard-free.
	ei := x.i & y.i
	ef := x.f & y.f
	return rail{
		i: (selX & x.i) | (selY & y.i) | (selE & ei),
		f: (selX & x.f) | (selY & y.f) | (selE & ef),
		h: (selX & x.h) | (selY & y.h) | (selE &^ (ei ^ ef)),
		c: (selX & x.c) | (selY & y.c),
	}
}

// or64 is the De Morgan dual, exactly how the algebra derives its OR
// table: x or y = not(and(not x, not y)).
func or64(robust bool, x, y rail) rail {
	return not64(and64(robust, not64(x), not64(y)))
}

// xor64 mirrors logic.deriveXor: a steady side passes the other input
// through (inverted for a steady one), preserving hazard and fault
// flags; anything else combines endpoints and drops the effect.
func xor64(x, y rail) rail {
	m0 := x.isZero()                  // -> y
	m1 := y.isZero() &^ m0            // -> x
	m2 := x.isOne() &^ (m0 | m1)      // -> not y
	m3 := y.isOne() &^ (m0 | m1 | m2) // -> not x
	rem := ^(m0 | m1 | m2 | m3)
	ei := x.i ^ y.i
	ef := x.f ^ y.f
	return rail{
		i: (m0 & y.i) | (m1 & x.i) | (m2 &^ y.i) | (m3 &^ x.i) | (rem & ei),
		f: (m0 & y.f) | (m1 & x.f) | (m2 &^ y.f) | (m3 &^ x.f) | (rem & ef),
		h: ((m0 | m2) & y.h) | ((m1 | m3) & x.h) | (rem &^ (ei ^ ef)),
		c: ((m0 | m2) & y.c) | ((m1 | m3) & x.c),
	}
}

// foldFill64 evaluates one gate over gathered input rails, the
// lane-parallel image of logic.Algebra.Eval: a left fold of the
// commutative core op followed by the trailing inversion of the
// inverting types.
func foldFill64(robust bool, t netlist.GateType, insI, insF, insH, insC []Word) rail {
	v := rail{i: insI[0], f: insF[0], h: insH[0], c: insC[0]}
	switch t {
	case netlist.Buf, netlist.DFF:
		return v
	case netlist.Not:
		return not64(v)
	case netlist.And, netlist.Nand:
		for p := 1; p < len(insI); p++ {
			v = and64(robust, v, rail{i: insI[p], f: insF[p], h: insH[p], c: insC[p]})
		}
		if t == netlist.Nand {
			v = not64(v)
		}
	case netlist.Or, netlist.Nor:
		for p := 1; p < len(insI); p++ {
			v = or64(robust, v, rail{i: insI[p], f: insF[p], h: insH[p], c: insC[p]})
		}
		if t == netlist.Nor {
			v = not64(v)
		}
	case netlist.Xor, netlist.Xnor:
		for p := 1; p < len(insI); p++ {
			v = xor64(v, rail{i: insI[p], f: insF[p], h: insH[p], c: insC[p]})
		}
		if t == netlist.Xnor {
			v = not64(v)
		}
	default:
		panic("sim: EvalFill64 on non-gate " + t.String())
	}
	return v
}

// injectFill64 is the lane-parallel InjectDelay.apply: where the value
// is the matching clean transition, raise the fault-effect flag. The
// endpoints never change, which is exactly why one injected walk yields
// both machines (the fault-free lane values are the I/F/H rails, the
// faulty divergence lives entirely in C).
func injectFill64(slowToRise bool, v rail) rail {
	if slowToRise {
		v.c |= ^v.i & v.f &^ v.h
	} else {
		v.c |= v.i & ^v.f &^ v.h
	}
	return v
}

// EvalFill64 evaluates the combinational block for 64 independent
// eight-valued frames at once, with an optional delay fault excited at
// its site in every lane — the same walk and injection points as the
// scalar Eval8 (stem injection on a PI/PPI before any consumer reads
// it, edge injection on the one fanin connection, stem injection on a
// gate after its own evaluation). The rails must hold the PI and PPI
// words on entry; every gate entry is overwritten.
func (n *Net) EvalFill64(alg *logic.Algebra, r *Rail64, inj *InjectDelay) {
	t := n.T
	robust := alg.IsRobust()
	injEdge := -1
	stem := netlist.None
	if inj != nil {
		if inj.Line.IsStem() {
			stem = inj.Line.Node
			if typ := t.Types[stem]; typ == netlist.Input || typ == netlist.DFF {
				v := injectFill64(inj.SlowToRise, rail{i: r.I[stem], f: r.F[stem], h: r.H[stem], c: r.C[stem]})
				r.I[stem], r.F[stem], r.H[stem], r.C[stem] = v.i, v.f, v.h, v.c
			}
		} else {
			injEdge = t.lineEdge(inj.Line)
		}
	}
	for _, id := range t.Order {
		beg, end := t.FaninOff[id], t.FaninOff[id+1]
		for k := beg; k < end; k++ {
			src := t.Fanin[k]
			v := rail{i: r.I[src], f: r.F[src], h: r.H[src], c: r.C[src]}
			if int(k) == injEdge {
				v = injectFill64(inj.SlowToRise, v)
			}
			p := k - beg
			r.insI[p], r.insF[p], r.insH[p], r.insC[p] = v.i, v.f, v.h, v.c
		}
		w := end - beg
		v := foldFill64(robust, t.Types[id], r.insI[:w], r.insF[:w], r.insH[:w], r.insC[:w])
		if id == stem {
			v = injectFill64(inj.SlowToRise, v)
		}
		r.I[id], r.F[id], r.H[id], r.C[id] = v.i, v.f, v.h, v.c
	}
}

// ObserveFill64 returns the lanes whose fault effect reaches a primary
// output in the fast frame (robust observation: a carrying PO value).
func (n *Net) ObserveFill64(r *Rail64) Word {
	var det Word
	for _, po := range n.C.POs {
		det |= r.C[po]
	}
	return det
}

// NextStateFill64 applies the capture rule of the scalar Confirm to all
// 64 lanes: a carrying PPO captures its initial value at the fast edge,
// a fault-free one its final value. goodS2 and faultyS2 (len(DFFs)
// words) receive the fault-free and faulty captured state bits; the
// returned word marks the lanes whose state register captured the
// effect at all. An injection on a DFF-feeding branch is respected,
// mirroring NextState8Into.
func (n *Net) NextStateFill64(r *Rail64, inj *InjectDelay, goodS2, faultyS2 []Word) Word {
	t := n.T
	injEdge := -1
	if inj != nil && !inj.Line.IsStem() {
		injEdge = t.lineEdge(inj.Line)
	}
	var carried Word
	for i, ff := range t.C.DFFs {
		e := t.FaninOff[ff]
		src := t.Fanin[e]
		v := rail{i: r.I[src], f: r.F[src], h: r.H[src], c: r.C[src]}
		if int(e) == injEdge {
			v = injectFill64(inj.SlowToRise, v)
		}
		goodS2[i] = v.f
		faultyS2[i] = (v.c & v.i) | (^v.c & v.f)
		carried |= v.c
	}
	return carried
}
