// Package semilet implements SEMILET, the sequential test generation
// engine of the paper (Section 4), built on the FOGBUSTER technique:
// forward time processing for fault effect propagation and reverse time
// processing for justification and synchronization.
//
// For the delay-fault flow the engine performs two tasks. Propagate drives
// a fault effect captured in the state register (a D or D' at a PPO of the
// fast test frame) to a primary output across slow-clock frames, during
// which the machine is fault free. Synchronize computes an initializing
// input sequence that brings the machine from the unknown power-up state
// into the state the local test generator requires. SEMILET's original
// role as a standalone stuck-at generator ("a sequential test pattern
// generator for several static fault models") is not reproduced: the
// delay-fault flow needs only these two tasks.
package semilet

import (
	"fogbuster/internal/sim"
	"fogbuster/internal/testability"
)

// Status is the outcome of a SEMILET task.
type Status uint8

const (
	// Success means the task produced a sequence.
	Success Status = iota
	// Exhausted means the bounded search space holds no solution.
	Exhausted
	// Aborted means the backtrack budget ran out.
	Aborted
)

// String returns a short name for the status.
func (s Status) String() string {
	switch s {
	case Success:
		return "success"
	case Exhausted:
		return "exhausted"
	default:
		return "aborted"
	}
}

// Budget is a backtrack budget shared by the sequential phases of one
// fault, mirroring the paper's "100 backtracks for the sequential test
// pattern generator".
type Budget struct {
	Used, Max int
}

// NewBudget returns a budget of n backtracks (the paper's default is 100).
func NewBudget(n int) *Budget { return &Budget{Max: n} }

// Spend consumes one backtrack and reports whether the budget still holds.
func (b *Budget) Spend() bool {
	b.Used++
	return b.Used <= b.Max
}

// Exceeded reports whether the budget has run out.
func (b *Budget) Exceeded() bool { return b.Used > b.Max }

// Options configures the sequential engine.
type Options struct {
	// MaxFrames bounds the forward propagation depth and the reverse
	// synchronization depth; 0 means 32.
	MaxFrames int
	// Meas supplies shared testability measures; nil computes them.
	Meas *testability.Measures
	// FullEval forces the propagation search to re-evaluate every frame
	// with the full levelized walk instead of the event-driven update of
	// the changed PI's fanout cone. The searches are identical step for
	// step (the delta evaluation is bit-identical by construction); the
	// knob exists as the reference oracle.
	FullEval bool
}

func (o Options) maxFrames() int {
	if o.MaxFrames == 0 {
		return 32
	}
	return o.MaxFrames
}

// Engine bundles the circuit view and heuristics for SEMILET tasks.
type Engine struct {
	net  *sim.Net
	meas *testability.Measures
	opts Options

	// Decision-probe state, armed per fault via SetProbe.
	probe       bool
	scalarProbe bool
	probeSeed   int64
	probeEvents int
	psc         *probeScratch
}

// NewEngine builds an engine for the circuit.
func NewEngine(net *sim.Net, opts Options) *Engine {
	meas := opts.Meas
	if meas == nil {
		meas = testability.Compute(net.C)
	}
	return &Engine{net: net, meas: meas, opts: opts}
}
