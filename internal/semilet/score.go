package semilet

import (
	"math/bits"

	"fogbuster/internal/sim"
)

// probeAfter is the backtrack count after which decision probing starts:
// the SCOAP-guided backtrace order is kept while it is working, and the
// sampled scores only pay for themselves on faults it is failing.
const probeAfter = 4

// SetProbe enables decision probing for the engine's next Propagate
// calls and resets the probe event counter, making the probe sampling a
// pure function of the supplied seed. Callers pass a per-fault seed so
// the search stays invariant under worker count. scalar selects the
// per-lane scalar reference oracle, which computes bit-identical scores
// one frame at a time.
func (e *Engine) SetProbe(seed int64, scalar bool) {
	e.probe = true
	e.probeSeed = seed
	e.scalarProbe = scalar
	e.probeEvents = 0
}

// probeScratch holds the probe's lane buffers, built on first use so
// engines that never probe pay nothing.
type probeScratch struct {
	valsG, valsF []sim.Word // good / faulty machine, one lane per bit
	v3G, v3F     []sim.V3   // scalar oracle frames
}

func (e *Engine) probeBuf() *probeScratch {
	if e.psc == nil {
		n := len(e.net.C.Nodes)
		e.psc = &probeScratch{
			valsG: make([]sim.Word, n), valsF: make([]sim.Word, n),
			v3G: make([]sim.V3, n), v3F: make([]sim.V3, n),
		}
	}
	return e.psc
}

// probeOrder scores both branches of a PI decision by sampled
// simulation and returns the order most-promising-first. Lanes 0..31
// try the backtraced value, lanes 32..63 its inversion; every lane
// samples one concrete completion of the frame (assigned PIs and known
// state broadcast, every X drawn once and shared between the good and
// faulty machine, D/D' split between them), simulates good and faulty
// machines two-valued — exact, since the sampled frames are fully
// binary — and scores a lane 2 when the machines differ at a PO and 1
// when they differ only at a PPO. The inverted branch is promoted only
// when strictly ahead, so ties keep the backtrace order. Ordering only:
// both branches remain enumerated, completeness is untouched.
//
// The default scoring is one lane-parallel pass per machine
// (sim.Eval64); the scalar oracle replays the identical 64 sampled
// frames one three-valued walk at a time. TestProbeScalarMatchesBatched
// pins the two modes to identical swap decisions.
func (p *propSearch) probeOrder(f *propFrame, pi int, val sim.V5) [2]sim.V5 {
	order := [2]sim.V5{val, invert5(val)}
	e := p.e
	if !e.probe || p.budget.Used < probeAfter || order[0] == order[1] {
		return order
	}
	event := e.probeEvents
	e.probeEvents++
	ps := e.probeBuf()
	// One sampling stream per (probeSeed, event): the sampling — and with
	// it the whole propagation search — is a pure function of the fault,
	// independent of worker count and of the batched/scalar scoring mode.
	rng := sim.NewSplitMix(e.probeSeed, uint64(event))
	c := e.net.C

	const lo = sim.Word(0xFFFFFFFF) // lanes of order[0]
	ones := ^sim.Word(0)
	for i, id := range c.PIs {
		var g sim.Word
		switch {
		case i == pi:
			if order[0] == sim.O5 {
				g |= lo
			}
			if order[1] == sim.O5 {
				g |= ^lo
			}
		case f.assign[i] == sim.O5:
			g = ones
		case f.assign[i] == sim.Z5:
			g = 0
		default: // X5: one shared draw per lane
			g = sim.Word(rng.Next())
		}
		ps.valsG[id], ps.valsF[id] = g, g
	}
	for i, ff := range c.DFFs {
		var g, fw sim.Word
		switch f.state[i] {
		case sim.O5:
			g, fw = ones, ones
		case sim.Z5:
			g, fw = 0, 0
		case sim.D5: // good 1, faulty 0
			g, fw = ones, 0
		case sim.B5: // good 0, faulty 1
			g, fw = 0, ones
		default: // X5: fixed but unknown, identical in both machines
			w := sim.Word(rng.Next())
			g, fw = w, w
		}
		ps.valsG[ff], ps.valsF[ff] = g, fw
	}

	var diffPO, diffPPO sim.Word
	if e.scalarProbe {
		diffPO, diffPPO = p.probeScalar(ps)
	} else {
		diffPO, diffPPO = p.probeBatched(ps)
	}
	s0 := 2*bits.OnesCount64(uint64(diffPO&lo)) + bits.OnesCount64(uint64(diffPPO&lo))
	s1 := 2*bits.OnesCount64(uint64(diffPO&^lo)) + bits.OnesCount64(uint64(diffPPO&^lo))
	if s1 > s0 {
		order[0], order[1] = order[1], order[0]
	}
	return order
}

// probeBatched evaluates all 64 sampled lane pairs in two two-valued
// passes and returns the PO and PPO divergence words.
func (p *propSearch) probeBatched(ps *probeScratch) (diffPO, diffPPO sim.Word) {
	e := p.e
	c := e.net.C
	e.net.Eval64(ps.valsG)
	e.net.Eval64(ps.valsF)
	for _, po := range c.POs {
		diffPO |= ps.valsG[po] ^ ps.valsF[po]
	}
	t := e.net.T
	for _, ff := range c.DFFs {
		d := t.Fanin[t.FaninOff[ff]]
		diffPPO |= ps.valsG[d] ^ ps.valsF[d]
	}
	return diffPO, diffPPO
}

// probeScalar is the reference oracle: the identical sampled frames, one
// scalar three-valued pair walk per lane.
func (p *propSearch) probeScalar(ps *probeScratch) (diffPO, diffPPO sim.Word) {
	e := p.e
	c := e.net.C
	t := e.net.T
	for k := uint(0); k < 64; k++ {
		for _, id := range c.PIs {
			ps.v3G[id] = sim.V3(ps.valsG[id] >> k & 1)
			ps.v3F[id] = sim.V3(ps.valsF[id] >> k & 1)
		}
		for _, id := range c.DFFs {
			ps.v3G[id] = sim.V3(ps.valsG[id] >> k & 1)
			ps.v3F[id] = sim.V3(ps.valsF[id] >> k & 1)
		}
		e.net.Eval3(ps.v3G, nil)
		e.net.Eval3(ps.v3F, nil)
		bit := sim.Word(1) << k
		for _, po := range c.POs {
			if ps.v3G[po] != ps.v3F[po] {
				diffPO |= bit
				break
			}
		}
		for _, ff := range c.DFFs {
			d := t.Fanin[t.FaninOff[ff]]
			if ps.v3G[d] != ps.v3F[d] {
				diffPPO |= bit
				break
			}
		}
	}
	return diffPO, diffPPO
}
