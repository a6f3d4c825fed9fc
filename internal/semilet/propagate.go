package semilet

import (
	"fogbuster/internal/netlist"
	"fogbuster/internal/sim"
	"fogbuster/internal/testability"
)

// PropResult is a successful fault effect propagation: one PI vector per
// slow-clock frame (X entries are don't-cares) that drives the effect from
// the state register to primary output PO in the final frame.
type PropResult struct {
	Vectors [][]sim.V3
	PO      int
	// RequiredPPIs lists the FF indices whose known initial value the
	// propagation actually relies on; the fault simulator's invalidation
	// check must ensure the fault cannot corrupt them as a side effect.
	RequiredPPIs []int
}

// Propagate drives the fault effect in state (D/D' entries, known bits and
// fixed-but-unknown X entries as handed over by TDgen) to a primary
// output using forward time processing. The machine is fault free during
// these frames (slow clock), so the five-valued composite state is the
// only good/faulty difference. X state entries are the paper's
// unjustifiable don't-cares: they can never be assigned, only PIs can.
func (e *Engine) Propagate(state []sim.V5, budget *Budget) (*PropResult, Status) {
	if !hasD5(state) {
		return nil, Exhausted
	}
	p := &propSearch{e: e, budget: budget}
	p.frames = append(p.frames, propFrame{state: state, assign: newAssign(len(e.net.C.PIs))})
	return p.run()
}

func hasD5(state []sim.V5) bool {
	for _, v := range state {
		if v.IsD() {
			return true
		}
	}
	return false
}

type propFrame struct {
	state    []sim.V5 // PPI values entering this frame
	assign   []sim.V5 // PI assignments (X5 = unassigned)
	decision []propDecision
	advanced bool // a deeper frame has been pushed from here

	// vals caches the frame's evaluation; dirty lists the PI indices
	// whose assignment changed since, so the next eval re-evaluates only
	// their fanout cones (nil vals forces a full evaluation).
	vals  []sim.V5
	dirty []int
}

type propDecision struct {
	pi    int
	order [2]sim.V5
	next  int
}

type propSearch struct {
	e      *Engine
	budget *Budget
	frames []propFrame
	// seeds is the scratch of the event-driven delta evaluation.
	seeds []netlist.NodeID
}

func newAssign(n int) []sim.V5 {
	a := make([]sim.V5, n)
	for i := range a {
		a[i] = sim.X5
	}
	return a
}

func (p *propSearch) run() (*PropResult, Status) {
	for {
		f := &p.frames[len(p.frames)-1]
		vals := p.eval(f)
		if po := p.observedPO(vals); po >= 0 {
			return p.extract(po), Success
		}
		switch p.step(f, vals) {
		case stepAssigned:
			continue
		case stepAdvance:
			next := p.e.net.NextState5(vals)
			f.advanced = true
			p.frames = append(p.frames, propFrame{state: next, assign: newAssign(len(f.assign))})
		case stepFail:
			if !p.backtrack() {
				if p.budget.Exceeded() {
					return nil, Aborted
				}
				return nil, Exhausted
			}
		}
	}
}

// eval brings the frame's cached evaluation up to date with its
// assignment. The first evaluation of a frame walks the full circuit;
// afterwards only the fanout cones of the PIs recorded in dirty are
// re-evaluated — bit-identical to a fresh full walk, because a changed
// PI can only affect its cone. The FullEval oracle stays on the full
// walk.
func (p *propSearch) eval(f *propFrame) []sim.V5 {
	if p.e.opts.FullEval || f.vals == nil {
		f.vals = p.e.net.LoadFrame5(f.assign, f.state)
		p.e.net.Eval5(f.vals)
		f.dirty = f.dirty[:0]
		return f.vals
	}
	if len(f.dirty) > 0 {
		p.seeds = p.seeds[:0]
		for _, pi := range f.dirty {
			id := p.e.net.C.PIs[pi]
			if f.vals[id] != f.assign[pi] {
				f.vals[id] = f.assign[pi]
				p.seeds = append(p.seeds, id)
			}
		}
		p.e.net.Eval5Cone(f.vals, p.seeds)
		f.dirty = f.dirty[:0]
	}
	return f.vals
}

func (p *propSearch) observedPO(vals []sim.V5) int {
	for i, po := range p.e.net.C.POs {
		if vals[po].IsD() {
			return i
		}
	}
	return -1
}

type stepKind uint8

const (
	stepAssigned stepKind = iota
	stepAdvance
	stepFail
)

// step makes one unit of progress in the current frame: either assigns a
// PI toward pushing the D-frontier, or decides to advance a frame, or
// reports that the frame is a dead end.
func (p *propSearch) step(f *propFrame, vals []sim.V5) stepKind {
	c := p.e.net.C
	if p.xPathToPO(vals) {
		if pi, val := p.frontierObjective(f, vals); pi >= 0 {
			order := p.probeOrder(f, pi, val)
			f.decision = append(f.decision, propDecision{pi: pi, order: order})
			f.assign[pi] = order[0]
			f.dirty = append(f.dirty, pi)
			return stepAssigned
		}
	}
	// No way to a PO in this frame: advance if the effect survives in the
	// next state, depth remains and the state is new — revisiting a state
	// can never observe anything a shorter sequence could not.
	if !f.advanced && len(p.frames) < p.e.opts.maxFrames() {
		next := p.e.net.NextState5(vals)
		if hasD5(next) && !p.stateSeen(next) {
			return stepAdvance
		}
	}
	_ = c
	return stepFail
}

// stateSeen reports whether an identical composite state is already on the
// frame stack.
func (p *propSearch) stateSeen(state []sim.V5) bool {
	for i := range p.frames {
		same := true
		for j, v := range p.frames[i].state {
			if v != state[j] {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return false
}

func invert5(v sim.V5) sim.V5 {
	switch v {
	case sim.Z5:
		return sim.O5
	case sim.O5:
		return sim.Z5
	}
	return v
}

// xPathToPO reports whether some fault effect can still reach a PO through
// X-valued logic in this frame.
func (p *propSearch) xPathToPO(vals []sim.V5) bool {
	c := p.e.net.C
	potential := make([]bool, len(c.Nodes))
	for i := range c.Nodes {
		if vals[i].IsD() {
			potential[i] = true
		}
	}
	for _, id := range c.GateOrder() {
		if vals[id] != sim.X5 {
			continue
		}
		for _, in := range c.Nodes[id].Fanin {
			if potential[in] {
				potential[id] = true
				break
			}
		}
	}
	for _, po := range c.POs {
		if potential[po] {
			return true
		}
	}
	return false
}

// frontierObjective picks a D-frontier gate and backtraces one side-input
// objective to an unassigned PI, returning (-1, _) when no frontier can be
// served by the assignable inputs.
func (p *propSearch) frontierObjective(f *propFrame, vals []sim.V5) (int, sim.V5) {
	c := p.e.net.C
	bestGate, bestCost := netlist.None, testability.Inf+1
	for _, id := range c.GateOrder() {
		if vals[id] != sim.X5 {
			continue
		}
		hasD := false
		for _, in := range c.Nodes[id].Fanin {
			if vals[in].IsD() {
				hasD = true
				break
			}
		}
		if hasD && p.e.meas.CO[id] < bestCost {
			bestGate, bestCost = id, p.e.meas.CO[id]
		}
	}
	if bestGate == netlist.None {
		return -1, sim.X5
	}
	// Objective: set an X side input of the frontier gate to the
	// non-controlling value, backtraced to a PI of this frame.
	node := &c.Nodes[bestGate]
	want := nonControlling5(node.Type)
	for _, in := range node.Fanin {
		if vals[in] != sim.X5 {
			continue
		}
		if pi, val := p.backtrace(f, vals, in, want); pi >= 0 {
			return pi, val
		}
	}
	return -1, sim.X5
}

// nonControlling5 is the side-input value that lets an effect through.
func nonControlling5(t netlist.GateType) sim.V5 {
	switch t {
	case netlist.And, netlist.Nand:
		return sim.O5
	case netlist.Or, netlist.Nor:
		return sim.Z5
	default:
		// XOR propagates with any known side value; NOT/BUF have no side.
		return sim.Z5
	}
}

// backtrace follows X-valued logic from the objective toward an
// unassigned PI of this frame. Fixed-unknown PPIs are dead ends: the
// paper's unjustifiable don't-cares cannot be assigned.
func (p *propSearch) backtrace(f *propFrame, vals []sim.V5, id netlist.NodeID, want sim.V5) (int, sim.V5) {
	c := p.e.net.C
	for {
		node := &c.Nodes[id]
		switch node.Type {
		case netlist.Input:
			for i, pi := range c.PIs {
				if pi == id {
					if f.assign[i] == sim.X5 {
						return i, want
					}
					return -1, sim.X5
				}
			}
			return -1, sim.X5
		case netlist.DFF:
			return -1, sim.X5
		}
		if invertsObjective(node.Type) {
			want = invert5(want)
		}
		next := netlist.None
		bestCost := testability.Inf + 1
		for _, in := range node.Fanin {
			if vals[in] != sim.X5 {
				continue
			}
			cost := p.e.meas.CC1[in]
			if want == sim.Z5 {
				cost = p.e.meas.CC0[in]
			}
			if cost < bestCost {
				next, bestCost = in, cost
			}
		}
		if next == netlist.None {
			return -1, sim.X5
		}
		id = next
	}
}

func invertsObjective(t netlist.GateType) bool {
	switch t {
	case netlist.Not, netlist.Nand, netlist.Nor, netlist.Xnor:
		return true
	}
	return false
}

// backtrack flips the deepest untried decision, popping exhausted
// decisions and frames, and reports whether the search can continue.
func (p *propSearch) backtrack() bool {
	for len(p.frames) > 0 {
		f := &p.frames[len(p.frames)-1]
		for len(f.decision) > 0 {
			d := &f.decision[len(f.decision)-1]
			d.next++
			if d.next < len(d.order) {
				if !p.budget.Spend() {
					return false
				}
				f.assign[d.pi] = d.order[d.next]
				f.dirty = append(f.dirty, d.pi)
				// The new assignment yields a new next state, so this
				// frame may advance again.
				f.advanced = false
				return true
			}
			f.assign[d.pi] = sim.X5
			f.dirty = append(f.dirty, d.pi)
			f.decision = f.decision[:len(f.decision)-1]
		}
		if len(p.frames) == 1 {
			p.frames = p.frames[:0]
			return false
		}
		p.frames = p.frames[:len(p.frames)-1]
	}
	return false
}

// extract records the solution and computes which known initial state bits
// the propagation actually relies on, by re-simulating with each one
// masked to X.
func (p *propSearch) extract(po int) *PropResult {
	res := &PropResult{PO: po}
	for i := range p.frames {
		vec := make([]sim.V3, len(p.frames[i].assign))
		for j, v := range p.frames[i].assign {
			vec[j] = v.Good()
		}
		res.Vectors = append(res.Vectors, vec)
	}
	initial := p.frames[0].state
	for ffIdx, v := range initial {
		if v == sim.X5 || v.IsD() {
			continue
		}
		masked := append([]sim.V5(nil), initial...)
		masked[ffIdx] = sim.X5
		if !p.replayObserves(masked, res.Vectors, po) {
			res.RequiredPPIs = append(res.RequiredPPIs, ffIdx)
		}
	}
	return res
}

// replayObserves re-simulates the recorded vectors from the given initial
// state and reports whether the PO still carries the effect in the final
// frame.
func (p *propSearch) replayObserves(state []sim.V5, vectors [][]sim.V3, po int) bool {
	cur := state
	var vals []sim.V5
	for _, vec := range vectors {
		v5 := make([]sim.V5, len(vec))
		for i, b := range vec {
			v5[i] = sim.FromV3(b)
		}
		vals = p.e.net.LoadFrame5(v5, cur)
		p.e.net.Eval5(vals)
		cur = p.e.net.NextState5(vals)
	}
	return vals[p.e.net.C.POs[po]].IsD()
}
