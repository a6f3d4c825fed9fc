// Package fausim implements FAUSIM, the sequential fault simulator
// integrated in SEMILET (paper Section 5, phases 1 and 2): good machine
// simulation of a test sequence, and stuck-at-style observability analysis
// of the propagation phase, where a fault effect captured at a PPO at the
// end of the fast frame is treated as a state difference that must reach a
// primary output under slow, fault-free clocking.
//
// The bulk entry points (ObservablePPOs, StuckCoverage) run on the 64-way
// dual-rail simulator: 64 faulty machines share one pass over the frame
// loop, one bit per machine, with exact three-valued semantics. Per-Sim
// scratch buffers make the passes allocation-free, so a Sim must not be
// shared between goroutines; build one per worker.
package fausim

import (
	"math/rand"

	"fogbuster/internal/netlist"
	"fogbuster/internal/sim"
)

// Sim wraps a circuit view for sequence-level simulation.
type Sim struct {
	net *sim.Net

	// fullEval forces the full levelized walks instead of the
	// event-driven selective-trace paths (the reference oracle). The
	// stuck-at batch simulator always walks fully: its 64 machines carry
	// injections everywhere, so there is no shared fault-free baseline.
	fullEval bool

	// Reusable 64-way scratch (lazily built): one dual-rail frame, one
	// injector, and the dual-rail state rails carried between frames;
	// cand lists ObservablePPOs' flip candidates.
	frame64            *sim.Frame64
	inj64              *sim.Inject64
	stateV, stateK     []sim.Word
	scratchV, scratchK []sim.Word
	cand               []int

	// Scalar scratch of the event-driven paths: the good and faulty
	// frame values and the states carried between frames.
	gv3, fv3       []sim.V3
	gstate, fstate []sim.V3
	seeds          []netlist.NodeID
}

// New builds a simulator for the circuit.
func New(net *sim.Net) *Sim { return &Sim{net: net} }

// SetFullEval selects between the event-driven selective-trace paths
// (default) and the full levelized reference walks. Call it before the
// first simulation.
func (s *Sim) SetFullEval(on bool) { s.fullEval = on }

// scratch64 returns the lazily-built 64-way buffers.
func (s *Sim) scratch64() (*sim.Frame64, *sim.Inject64) {
	if s.frame64 == nil {
		s.frame64 = s.net.NewFrame64()
		s.inj64 = s.net.NewInject64()
		n := len(s.net.C.DFFs)
		s.stateV = make([]sim.Word, n)
		s.stateK = make([]sim.Word, n)
		s.scratchV = make([]sim.Word, n)
		s.scratchK = make([]sim.Word, n)
	}
	return s.frame64, s.inj64
}

// scratchScalar returns the lazily-built scalar frame buffers of the
// event-driven paths.
func (s *Sim) scratchScalar() ([]sim.V3, []sim.V3) {
	if s.gv3 == nil {
		s.gv3 = make([]sim.V3, len(s.net.C.Nodes))
		s.fv3 = make([]sim.V3, len(s.net.C.Nodes))
		s.gstate = make([]sim.V3, len(s.net.C.DFFs))
		s.fstate = make([]sim.V3, len(s.net.C.DFFs))
	}
	return s.gv3, s.fv3
}

// FillSequence replaces every X in every vector with a pseudo-random bit,
// the paper's phase-1 treatment of don't-cares left by test generation.
func FillSequence(vectors [][]sim.V3, rng *rand.Rand) [][]sim.V3 {
	out := make([][]sim.V3, len(vectors))
	for i, vec := range vectors {
		out[i] = sim.XFill(vec, rng)
	}
	return out
}

// Replay is the good machine's trace over a vector sequence: the
// per-frame observable Steps plus — on the event-driven path — the
// complete per-frame node values, which serve as the selective-trace
// baseline the batched pair simulation diffs against.
type Replay struct {
	Steps []sim.Step
	vals  [][]sim.V3 // full node values per frame; nil on the full-eval path
}

// GoodReplay simulates the good machine over the vectors from initState
// (nil for power-up) and returns the per-frame trace.
func (s *Sim) GoodReplay(initState []sim.V3, vectors [][]sim.V3) *Replay {
	if s.fullEval {
		return &Replay{Steps: s.net.SeqSim3(initState, vectors)}
	}
	r := &Replay{
		Steps: make([]sim.Step, 0, len(vectors)),
		vals:  make([][]sim.V3, 0, len(vectors)),
	}
	state := initState
	for _, vec := range vectors {
		vals := s.net.LoadFrame(vec, state)
		s.net.Eval3(vals, nil)
		st := sim.Step{Outputs: s.net.Outputs3(vals), State: s.net.NextState3(vals, nil)}
		r.Steps = append(r.Steps, st)
		r.vals = append(r.vals, vals)
		state = st.State
	}
	return r
}

// PairDiff simulates the good and faulty machines (differing only in their
// starting states) over the vectors and returns the first frame and PO
// index where they provably differ, or (-1, -1). The machine logic is
// fault free in both runs: under the slow clock the delay fault cannot
// occur, exactly the paper's propagation-phase model. The scan returns on
// the first provable difference; later POs and frames are never evaluated.
// By default the faulty machine is a selective trace over the good one:
// each frame copies the good values and re-evaluates only the cones of
// the state bits that still differ, and the replay stops as soon as the
// two states coincide (no later frame could distinguish them).
func (s *Sim) PairDiff(goodState, faultyState []sim.V3, vectors [][]sim.V3) (int, int) {
	if s.fullEval {
		g, f := goodState, faultyState
		for frame, vec := range vectors {
			gv := s.net.LoadFrame(vec, g)
			s.net.Eval3(gv, nil)
			fv := s.net.LoadFrame(vec, f)
			s.net.Eval3(fv, nil)
			for i, po := range s.net.C.POs {
				a, b := gv[po], fv[po]
				if a.Known() && b.Known() && a != b {
					return frame, i
				}
			}
			g = s.net.NextState3(gv, nil)
			f = s.net.NextState3(fv, nil)
		}
		return -1, -1
	}
	gv, fv := s.scratchScalar()
	c := s.net.C
	g := append(s.gstate[:0], goodState...)
	f := append(s.fstate[:0], faultyState...)
	for frame, vec := range vectors {
		s.net.LoadFrameInto(gv, vec, g)
		s.net.Eval3(gv, nil)
		copy(fv, gv)
		seeds := s.seeds[:0]
		for i, ff := range c.DFFs {
			if f[i] != g[i] {
				fv[ff] = f[i]
				seeds = append(seeds, ff)
			}
		}
		s.seeds = seeds
		if len(seeds) == 0 {
			return -1, -1
		}
		s.net.Eval3Cone(fv, seeds)
		for i, po := range c.POs {
			a, b := gv[po], fv[po]
			if a.Known() && b.Known() && a != b {
				return frame, i
			}
		}
		for i, ff := range c.DFFs {
			d := c.Nodes[ff].Fanin[0]
			g[i], f[i] = gv[d], fv[d]
		}
	}
	return -1, -1
}

// PairDiffBatch resolves up to 64 good/faulty state pairs in one replay
// of the propagation frames: machine k starts from the fully specified
// faulty state whose flip-flop i value is bit k of faultyV[i], and is
// compared frame by frame against the precomputed good replay (goods
// must be GoodReplay(goodState, vectors) for the shared good state).
// live selects the machines to resolve; the returned word marks the
// machines with a provable good/faulty PO difference in some frame —
// per machine exactly the PairDiff verdict (frame >= 0), because the
// dual-rail evaluation is bit-exact against the scalar three-valued
// simulation and a once-detected machine stays detected.
func (s *Sim) PairDiffBatch(goods *Replay, faultyV []sim.Word, live sim.Word, vectors [][]sim.V3) sim.Word {
	s.scratch64()
	for i := range s.net.C.DFFs {
		s.stateV[i], s.stateK[i] = faultyV[i], sim.AllOnes
	}
	return s.replay64(goods, nil, live, vectors)
}

// replay64 is the one 64-machine frame loop behind every batched entry
// point. The machines start from the dual-rail state the caller loaded
// into s.stateV/s.stateK and run fault free unless inj is non-nil, in
// which case inj is applied in every frame. Each frame's POs are compared
// against the good replay goods; the returned word marks the live
// machines with a provable difference, and the loop stops as soon as
// every live machine is resolved.
//
// Without an injection, when the replay carries the full good-machine
// values (the event-driven default), each frame evaluates only the
// dual-rail overlay of the state bits that still diverge from the good
// machine, and the loop exits as soon as every machine's state has
// collapsed onto the good one. Injected machines differ from the good
// machine everywhere their faults reach, so they take the full walk.
func (s *Sim) replay64(goods *Replay, inj *sim.Inject64, live sim.Word, vectors [][]sim.V3) sim.Word {
	frame, _ := s.scratch64()
	net := s.net
	c := net.C
	overlay := inj == nil && !s.fullEval && goods.vals != nil
	stateV, stateK := s.stateV, s.stateK
	nextV, nextK := s.scratchV, s.scratchK
	var detected sim.Word
	for fi, vec := range vectors {
		if overlay {
			base := goods.vals[fi]
			seeded := false
			for i, ff := range c.DFFs {
				bv, bk := sim.Broadcast64(base[ff])
				if stateV[i] != bv || stateK[i] != bk {
					net.Overlay64Set(frame, ff, stateV[i], stateK[i])
					seeded = true
				}
			}
			if !seeded {
				// Every machine's state coincides with the good
				// machine's: no later frame can distinguish them.
				return detected
			}
			net.Eval64DROverlay(frame, base)
		} else {
			net.LoadFrame64DR(frame, vec, nil)
			for i, ff := range c.DFFs {
				frame.V[ff], frame.K[ff] = stateV[i], stateK[i]
			}
			net.Eval64DR(frame, inj)
		}
		for p, po := range c.POs {
			if overlay && !net.Overlay64Marked(po) {
				continue // identical to the good machine: no provable diff
			}
			good := goods.Steps[fi].Outputs[p]
			if !good.Known() {
				continue
			}
			gw, _ := sim.Broadcast64(good)
			diff := (frame.V[po] ^ gw) & frame.K[po] & live
			if diff == 0 {
				continue
			}
			detected |= diff
			live &^= diff
			if live == 0 {
				if overlay {
					net.Overlay64Reset()
				}
				return detected
			}
		}
		if overlay {
			base := goods.vals[fi]
			for i, ff := range c.DFFs {
				d := c.Nodes[ff].Fanin[0]
				if net.Overlay64Marked(d) {
					nextV[i], nextK[i] = frame.V[d], frame.K[d]
				} else {
					nextV[i], nextK[i] = sim.Broadcast64(base[d])
				}
			}
			net.Overlay64Reset()
		} else {
			net.NextState64DR(frame, inj, nextV, nextK)
		}
		stateV, nextV = nextV, stateV
		stateK, nextK = nextK, stateK
	}
	return detected
}

// ObservablePPOs performs the paper's phase-2 analysis: for every flip-flop
// index whose captured value could carry a fault effect (nonSteady), a
// D is injected by flipping that state bit and the propagation vectors are
// replayed; the result marks the PPOs whose effects reach a primary
// output. The fault effect exists only at the observation point in the
// fast frame — later frames are fault free — which is exactly how FAUSIM
// treats it.
//
// All candidate flips are simulated together, 64 flipped machines per
// word compared against one good replay of the propagation frames, so
// the whole analysis costs a single replay per batch instead of one per
// flip-flop. The good replay, GoodReplay(goodState, vectors), is
// returned for callers that simulate more machines over the same frames.
func (s *Sim) ObservablePPOs(goodState []sim.V3, nonSteady []bool, vectors [][]sim.V3) ([]bool, *Replay) {
	obs := make([]bool, len(goodState))
	goods := s.GoodReplay(goodState, vectors)
	s.scratch64()
	cand := s.cand[:0]
	for i, ns := range nonSteady {
		if ns && goodState[i].Known() {
			cand = append(cand, i)
		}
	}
	s.cand = cand
	for len(cand) > 0 {
		batch := cand[:min(len(cand), 64)]
		cand = cand[len(batch):]
		// Machine b starts from goodState with batch[b] flipped.
		for i, v := range goodState {
			s.stateV[i], s.stateK[i] = sim.Broadcast64(v)
		}
		for b, ffIdx := range batch {
			s.stateV[ffIdx] ^= sim.Word(1) << uint(b)
		}
		det := s.replay64(goods, nil, sim.AllOnes>>uint(64-len(batch)), vectors)
		for b, ffIdx := range batch {
			obs[ffIdx] = det&(sim.Word(1)<<uint(b)) != 0
		}
	}
	return obs, goods
}

// StuckCoverage fault-simulates a sequence against a set of stuck-at
// faults by pair simulation from power-up. out[i][v] reports whether
// lines[i] stuck at v (0 or 1) is detected.
//
// The faults run 64 machines per word through the dual-rail simulator,
// machines 2j and 2j+1 of a batch holding the batch's j-th line stuck at
// 0 and at 1: one good-machine replay is shared by all batches, each
// faulty machine drops out of its batch on the first provable PO
// difference, and a batch whose machines are all detected stops before
// the frame loop ends.
func (s *Sim) StuckCoverage(vectors [][]sim.V3, lines []netlist.Line) [][2]bool {
	out := make([][2]bool, len(lines))
	goods := &Replay{Steps: s.net.SeqSim3(nil, vectors)}
	_, inj := s.scratch64()
	for base := 0; base < len(lines); base += 32 {
		batch := lines[base:min(base+32, len(lines))]
		inj.Reset()
		for j, l := range batch {
			inj.Add(uint(2*j), l, sim.Lo)
			inj.Add(uint(2*j+1), l, sim.Hi)
		}
		for i := range s.stateV {
			s.stateV[i], s.stateK[i] = 0, 0 // power-up: all X
		}
		det := s.replay64(goods, inj, sim.AllOnes>>uint(64-2*len(batch)), vectors)
		for j := range batch {
			out[base+j] = [2]bool{det&(1<<uint(2*j)) != 0, det&(1<<uint(2*j+1)) != 0}
		}
	}
	return out
}
