package sim

import (
	"fogbuster/internal/logic"
	"fogbuster/internal/netlist"
)

// This file implements the event-driven selective-trace kernel shared by
// every algebra: a level-bucketed worklist that, given a baseline value
// array and a set of changed source nodes, re-evaluates only the gates
// reachable in the fanout cone of the changes. Because a combinational
// consumer always sits at a strictly higher level than its driver, one
// ascending sweep over the buckets visits every affected gate exactly
// once, in an order consistent with the full levelized walk — which is
// why each cone kernel is bit-identical to its full counterpart (pinned
// by the cross-checks in cone_test.go). A gate whose recomputed value
// equals its baseline value stops the wave: nothing downstream of it can
// differ either.
//
// Flip-flop consumers never enter the worklist: the frame boundary stops
// the event wave exactly as it stops the levelized evaluation, and the
// NextState* extractors apply DFF-feeding branch injections themselves.

// worklist is the level-bucketed pending-gate queue. It lives on the Net
// (one per worker); every kernel call drains it completely, so the
// zero-allocation buckets are reusable across calls.
type worklist struct {
	buckets [][]int32
	queued  []bool
}

func (n *Net) initWorklist() {
	if n.wl.queued == nil {
		n.wl.buckets = make([][]int32, n.T.MaxLevel+1)
		n.wl.queued = make([]bool, n.T.NumNodes())
	}
}

// sched queues gate id for re-evaluation at its level.
func (n *Net) sched(id netlist.NodeID) {
	if n.wl.queued[id] {
		return
	}
	n.wl.queued[id] = true
	lvl := n.T.Level[id]
	n.wl.buckets[lvl] = append(n.wl.buckets[lvl], int32(id))
}

// schedConsumers queues every combinational gate reading node id.
func (n *Net) schedConsumers(id netlist.NodeID) {
	t := n.T
	for k := t.FanoutOff[id]; k < t.FanoutOff[id+1]; k++ {
		c := t.FanoutNode[k]
		if t.Types[c].IsGate() {
			n.sched(c)
		}
	}
}

// Eval3Cone re-evaluates, in place, the fanout cones of the seed nodes
// in the three-valued domain. vals must hold a consistent Eval3 result
// except at the seeds, whose (source) values the caller has already
// overwritten. Injections are not supported: the event-driven sequential
// pair simulators diff fault-free machines against a baseline.
func (n *Net) Eval3Cone(vals []V3, seeds []netlist.NodeID) {
	n.initWorklist()
	t := n.T
	for _, s := range seeds {
		if t.Types[s].IsGate() {
			n.sched(s)
		} else {
			n.schedConsumers(s)
		}
	}
	ins := n.ins3
	for lvl := int32(1); lvl <= t.MaxLevel; lvl++ {
		bucket := n.wl.buckets[lvl]
		for _, id32 := range bucket {
			id := netlist.NodeID(id32)
			n.wl.queued[id] = false
			beg, end := t.FaninOff[id], t.FaninOff[id+1]
			buf := ins[:end-beg]
			for k := beg; k < end; k++ {
				buf[k-beg] = vals[t.Fanin[k]]
			}
			if v := EvalGate3(t.Types[id], buf); v != vals[id] {
				vals[id] = v
				n.schedConsumers(id)
			}
		}
		n.wl.buckets[lvl] = bucket[:0]
	}
}

// Eval5Cone is Eval3Cone in the composite five-valued domain, used by
// SEMILET's propagation search to re-evaluate only the cone of a changed
// PI assignment. Like Eval5 it has no injection: the slow clock makes
// the machine fault free during propagation.
func (n *Net) Eval5Cone(vals []V5, seeds []netlist.NodeID) {
	n.initWorklist()
	t := n.T
	for _, s := range seeds {
		if t.Types[s].IsGate() {
			n.sched(s)
		} else {
			n.schedConsumers(s)
		}
	}
	ins := n.ins5
	for lvl := int32(1); lvl <= t.MaxLevel; lvl++ {
		bucket := n.wl.buckets[lvl]
		for _, id32 := range bucket {
			id := netlist.NodeID(id32)
			n.wl.queued[id] = false
			beg, end := t.FaninOff[id], t.FaninOff[id+1]
			buf := ins[:end-beg]
			for k := beg; k < end; k++ {
				buf[k-beg] = vals[t.Fanin[k]]
			}
			if v := EvalGate5(t.Types[id], buf); v != vals[id] {
				vals[id] = v
				n.schedConsumers(id)
			}
		}
		n.wl.buckets[lvl] = bucket[:0]
	}
}

// Eval8Cone applies a delay fault injection to a fault-free eight-valued
// evaluation by selective trace: vals must hold the full Eval8 result
// with nil injection (the good-machine values the caller already holds);
// on return it equals Eval8 with the injection, but only the gates in
// the fault site's fanout cone were re-evaluated.
func (n *Net) Eval8Cone(alg *logic.Algebra, vals []logic.Value, inj *InjectDelay) {
	if inj == nil {
		return
	}
	n.initWorklist()
	t := n.T
	injEdge := -1
	stem := netlist.None
	if inj.Line.IsStem() {
		stem = inj.Line.Node
		if typ := t.Types[stem]; typ == netlist.Input || typ == netlist.DFF {
			if nv := inj.apply(vals[stem]); nv != vals[stem] {
				vals[stem] = nv
				n.schedConsumers(stem)
			}
		} else {
			n.sched(stem)
		}
	} else if injEdge = t.lineEdge(inj.Line); injEdge >= 0 {
		consumer, _ := t.BranchEdge(inj.Line.Node, inj.Line.Branch)
		if t.Types[consumer].IsGate() {
			n.sched(consumer)
		}
	}
	ins := n.ins8
	for lvl := int32(1); lvl <= t.MaxLevel; lvl++ {
		bucket := n.wl.buckets[lvl]
		for _, id32 := range bucket {
			id := netlist.NodeID(id32)
			n.wl.queued[id] = false
			beg, end := t.FaninOff[id], t.FaninOff[id+1]
			buf := ins[:end-beg]
			for k := beg; k < end; k++ {
				v := vals[t.Fanin[k]]
				if int(k) == injEdge {
					v = inj.apply(v)
				}
				buf[k-beg] = v
			}
			v := alg.Eval(t.Types[id], buf)
			if id == stem {
				v = inj.apply(v)
			}
			if v != vals[id] {
				vals[id] = v
				n.schedConsumers(id)
			}
		}
		n.wl.buckets[lvl] = bucket[:0]
	}
}

// setCarry records a divergence of the carry rail from its all-zero
// baseline.
func (n *Net) setCarry(C []Word, id netlist.NodeID, w Word) {
	if !n.carryMarked[id] {
		n.carryMarked[id] = true
		n.carryTouched = append(n.carryTouched, id)
	}
	C[id] = w
}

// EvalCarry64Cone is the event-driven form of EvalCarry64: C must be
// all-zero on entry (a fresh allocation is, and ResetCarry64 restores
// the invariant) and receives exactly the carry words the full
// evaluation would produce, but only gates in the union of the 64
// injection sites' fanout cones are visited. Call ResetCarry64 with the
// same C before the next cone evaluation on this Net.
func (n *Net) EvalCarry64Cone(alg *logic.Algebra, vals []logic.Value, C []Word, inj *InjectDelay64) {
	n.initWorklist()
	t := n.T
	if inj.hasStem {
		for _, id := range inj.stemNodes {
			if typ := t.Types[id]; typ == netlist.Input || typ == netlist.DFF {
				if w := inj.stemExcite(id, vals[id]); w != 0 {
					n.setCarry(C, id, w)
					n.schedConsumers(id)
				}
			} else {
				n.sched(id)
			}
		}
	}
	if inj.hasBranch {
		for _, consumer := range inj.edgeNodes {
			if t.Types[consumer].IsGate() {
				n.sched(consumer)
			}
		}
	}
	cbuf := n.ins64[:t.MaxFanin]
	for lvl := int32(1); lvl <= t.MaxLevel; lvl++ {
		bucket := n.wl.buckets[lvl]
		for _, id32 := range bucket {
			id := netlist.NodeID(id32)
			n.wl.queued[id] = false
			beg, end := t.FaninOff[id], t.FaninOff[id+1]
			nin := int(end - beg)
			var any Word
			for k := beg; k < end; k++ {
				cw := C[t.Fanin[k]]
				if inj.hasBranch && inj.edgeRise[k]|inj.edgeFall[k] != 0 {
					cw |= inj.edgeExcite(int(k), vals[t.Fanin[k]])
				}
				cbuf[k-beg] = cw
				any |= cw
			}
			accC := cbuf[0]
			if any != 0 && nin > 1 {
				accP := vals[t.Fanin[beg]]
				for pos := 1; pos < nin; pos++ {
					inP := vals[t.Fanin[beg+int32(pos)]]
					accC = carryStep(alg, t.Types[id], accP, inP, accC, cbuf[pos])
					accP = core2(alg, t.Types[id], accP, inP)
				}
			}
			if inj.hasStem && inj.stemRise[id]|inj.stemFall[id] != 0 {
				accC |= inj.stemExcite(id, vals[id])
			}
			if accC != C[id] {
				n.setCarry(C, id, accC)
				n.schedConsumers(id)
			}
		}
		n.wl.buckets[lvl] = bucket[:0]
	}
}

// ResetCarry64 restores the all-zero carry baseline touched by the last
// EvalCarry64Cone, in O(touched).
func (n *Net) ResetCarry64(C []Word) {
	for _, id := range n.carryTouched {
		C[id] = 0
		n.carryMarked[id] = false
	}
	n.carryTouched = n.carryTouched[:0]
}

// Overlay64Set installs dual-rail values diverging from the scalar
// baseline at source node id and schedules its gate consumers. It is
// the seeding step of Eval64DROverlay; the caller compares candidate
// rails against Broadcast64 of the baseline and seeds only real
// divergences.
func (n *Net) Overlay64Set(f *Frame64, id netlist.NodeID, v, k Word) {
	n.initWorklist()
	if !n.ovMarked[id] {
		n.ovMarked[id] = true
		n.ovTouched = append(n.ovTouched, id)
	}
	f.V[id], f.K[id] = v, k
	n.schedConsumers(id)
}

// Eval64DROverlay evaluates the 64-way dual-rail frame as a sparse
// overlay over a scalar fault-free baseline: base holds the scalar
// three-valued value of every node for this frame, and the machines
// diverge from it only at the sources seeded with Overlay64Set. On
// return, f's rails are valid exactly for the nodes Overlay64Marked
// reports; every unmarked node equals Broadcast64(base[node]) in all 64
// machines, which is what a full Eval64DR would compute there (the
// dual-rail gate functions are bit-exact against EvalGate3 per machine).
// Fault-free evaluation only — injections stay on the full path.
func (n *Net) Eval64DROverlay(f *Frame64, base []V3) {
	t := n.T
	insV := n.ins64[:t.MaxFanin]
	insK := n.ins64[t.MaxFanin:]
	for lvl := int32(1); lvl <= t.MaxLevel; lvl++ {
		bucket := n.wl.buckets[lvl]
		for _, id32 := range bucket {
			id := netlist.NodeID(id32)
			n.wl.queued[id] = false
			beg, end := t.FaninOff[id], t.FaninOff[id+1]
			for k := beg; k < end; k++ {
				in := t.Fanin[k]
				if n.ovMarked[in] {
					insV[k-beg], insK[k-beg] = f.V[in], f.K[in]
				} else {
					insV[k-beg], insK[k-beg] = Broadcast64(base[in])
				}
			}
			v, k := evalGate64DR(t.Types[id], insV[:end-beg], insK[:end-beg])
			bv, bk := Broadcast64(base[id])
			if v != bv || k != bk {
				if !n.ovMarked[id] {
					n.ovMarked[id] = true
					n.ovTouched = append(n.ovTouched, id)
				}
				f.V[id], f.K[id] = v, k
				n.schedConsumers(id)
			}
		}
		n.wl.buckets[lvl] = bucket[:0]
	}
}

// Overlay64Marked reports whether node id diverges from the scalar
// baseline of the current overlay.
func (n *Net) Overlay64Marked(id netlist.NodeID) bool { return n.ovMarked[id] }

// Overlay64Reset clears the overlay for the next frame, in O(touched).
func (n *Net) Overlay64Reset() {
	for _, id := range n.ovTouched {
		n.ovMarked[id] = false
	}
	n.ovTouched = n.ovTouched[:0]
}
