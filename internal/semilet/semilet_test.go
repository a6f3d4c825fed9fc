package semilet

import (
	"testing"

	"fogbuster/internal/bench"
	"fogbuster/internal/netlist"
	"fogbuster/internal/sim"
)

func shiftEngine(bits int) (*Engine, *sim.Net) {
	net := sim.NewNet(bench.ShiftRegister(bits))
	return NewEngine(net, Options{}), net
}

// TestPropagateShiftRegister: a D in the first stage of a shift register
// must march to the output in exactly bits-1 more frames.
func TestPropagateShiftRegister(t *testing.T) {
	e, net := shiftEngine(4)
	state := []sim.V5{sim.D5, sim.Z5, sim.Z5, sim.Z5}
	res, st := e.Propagate(state, NewBudget(100))
	if st != Success {
		t.Fatalf("status %v", st)
	}
	if res.PO != 0 {
		t.Fatalf("PO = %d", res.PO)
	}
	// q3 is the output; D sits at q0 and needs 3 more clocks (frames 2..4
	// observe it). Frame count = 4: the D appears at the PO in frame 4.
	if len(res.Vectors) != 4 {
		t.Fatalf("frames = %d, want 4", len(res.Vectors))
	}
	_ = net
}

// TestPropagateRequiresSideValues: propagation through an AND gate whose
// other input is a fixed-unknown state bit must fail (the paper's
// unjustifiable don't-care), and succeed when the bit is known 1.
func TestPropagateRequiresSideValues(t *testing.T) {
	b := netlist.NewBuilder("gated")
	b.Input("in")
	b.Gate("d0", netlist.Buf, "in")
	b.DFF("q0", "d0")
	b.Gate("d1", netlist.Buf, "in")
	b.DFF("q1", "d1")
	b.Gate("y", netlist.And, "q0", "q1")
	b.Output("y")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(sim.NewNet(c), Options{})

	// q1 unknown: the D at q0 cannot pass the AND robustly.
	if _, st := e.Propagate([]sim.V5{sim.D5, sim.X5}, NewBudget(100)); st != Exhausted {
		t.Fatalf("fixed-unknown side input: status %v, want exhausted", st)
	}
	// q1 known 1: immediate observation.
	res, st := e.Propagate([]sim.V5{sim.D5, sim.O5}, NewBudget(100))
	if st != Success {
		t.Fatalf("known side input: status %v", st)
	}
	if len(res.Vectors) != 1 {
		t.Fatalf("frames = %d, want 1", len(res.Vectors))
	}
	// The known q1 bit must be reported as required.
	if len(res.RequiredPPIs) != 1 || res.RequiredPPIs[0] != 1 {
		t.Fatalf("required PPIs = %v, want [1]", res.RequiredPPIs)
	}
}

// TestPropagateNeedsPIAssignment: the effect passes an AND gate gated by a
// primary input; the engine must assign that PI to 1.
func TestPropagateNeedsPIAssignment(t *testing.T) {
	b := netlist.NewBuilder("pigate")
	b.Input("in")
	b.Input("en")
	b.Gate("d0", netlist.Buf, "in")
	b.DFF("q0", "d0")
	b.Gate("y", netlist.And, "q0", "en")
	b.Output("y")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(sim.NewNet(c), Options{})
	res, st := e.Propagate([]sim.V5{sim.D5}, NewBudget(100))
	if st != Success {
		t.Fatalf("status %v", st)
	}
	if res.Vectors[0][1] != sim.Hi {
		t.Fatalf("en = %v, want 1", res.Vectors[0][1])
	}
}

// TestPropagateNoEffect: a state without any D is immediately exhausted.
func TestPropagateNoEffect(t *testing.T) {
	e, _ := shiftEngine(3)
	if _, st := e.Propagate([]sim.V5{sim.Z5, sim.X5, sim.O5}, NewBudget(10)); st != Exhausted {
		t.Fatalf("status %v, want exhausted", st)
	}
}

// TestSynchronizeShiftRegister: any full state of a shift register is
// reachable from the unknown state by feeding the bits serially.
func TestSynchronizeShiftRegister(t *testing.T) {
	e, net := shiftEngine(4)
	target := []sim.V3{sim.Hi, sim.Lo, sim.Hi, sim.Hi}
	res, st := e.Synchronize(target, NewBudget(100))
	if st != Success {
		t.Fatalf("status %v", st)
	}
	// Validate by simulation from the all-X state.
	steps := net.SeqSim3(nil, res.Vectors)
	final := steps[len(steps)-1].State
	for i, want := range target {
		if final[i] != want {
			t.Fatalf("bit %d = %v, want %v (sequence %v)", i, final[i], want, res.Vectors)
		}
	}
}

// TestSynchronizePartialTarget: X target bits are don't-cares; an all-X
// target needs no vectors at all.
func TestSynchronizePartialTarget(t *testing.T) {
	e, net := shiftEngine(4)
	res, st := e.Synchronize([]sim.V3{sim.X, sim.X, sim.X, sim.X}, NewBudget(10))
	if st != Success || len(res.Vectors) != 0 {
		t.Fatalf("all-X target: %v, %d vectors", st, len(res.Vectors))
	}
	res, st = e.Synchronize([]sim.V3{sim.X, sim.Hi, sim.X, sim.X}, NewBudget(100))
	if st != Success {
		t.Fatalf("partial target: %v", st)
	}
	steps := net.SeqSim3(nil, res.Vectors)
	if got := steps[len(steps)-1].State[1]; got != sim.Hi {
		t.Fatalf("bit 1 = %v, want 1", got)
	}
}

// TestSynchronizeCounter: the feedback-style counter clears synchronously,
// so the all-zero state must be synchronizable.
func TestSynchronizeCounter(t *testing.T) {
	p := *bench.ProfileByName("s208")
	c := p.Circuit()
	e := NewEngine(sim.NewNet(c), Options{})
	target := make([]sim.V3, len(c.DFFs))
	for i := range target {
		target[i] = sim.Lo
	}
	res, st := e.Synchronize(target, NewBudget(100))
	if st != Success {
		t.Fatalf("status %v after %d backtracks", st, 0)
	}
	net := sim.NewNet(c)
	steps := net.SeqSim3(nil, res.Vectors)
	final := steps[len(steps)-1].State
	for i := range target {
		if final[i] != sim.Lo {
			t.Fatalf("bit %d = %v, want 0", i, final[i])
		}
	}
}

// TestSynchronizeImpossible: a state violating an invariant of the
// machine must be exhausted, not looped forever. In a shift register fed
// by one serial input, FFs q0 and q1 cannot... they can hold any
// combination; instead use a machine where two FFs share the same D
// signal and require them to differ.
func TestSynchronizeImpossible(t *testing.T) {
	b := netlist.NewBuilder("twins")
	b.Input("in")
	b.Gate("d", netlist.Buf, "in")
	b.DFF("qa", "d")
	b.DFF("qb", "d")
	b.Gate("y", netlist.And, "qa", "qb")
	b.Output("y")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(sim.NewNet(c), Options{})
	_, st := e.Synchronize([]sim.V3{sim.Hi, sim.Lo}, NewBudget(100))
	if st == Success {
		t.Fatal("synchronized an impossible state")
	}
}

func TestBudget(t *testing.T) {
	b := NewBudget(2)
	if !b.Spend() || !b.Spend() {
		t.Fatal("budget should allow 2 spends")
	}
	if b.Spend() {
		t.Fatal("third spend should fail")
	}
	if !b.Exceeded() {
		t.Fatal("budget should be exceeded")
	}
	if Success.String() != "success" || Exhausted.String() != "exhausted" || Aborted.String() != "aborted" {
		t.Fatal("status names wrong")
	}
}
