package sim

import "fogbuster/internal/netlist"

// Word is a 64-way parallel two-valued signal: bit k holds the value of
// the signal under pattern k.
type Word = uint64

// AllOnes is the Word with every pattern bit set.
const AllOnes = ^Word(0)

// Frame64 is a 64-way dual-rail three-valued frame: for every node, bit k
// of K says whether machine k knows the value, and bit k of V holds that
// value (V bits are zero wherever K is zero). The encoding makes the
// 64-way evaluation bit-exact against EvalGate3 per machine, including
// X propagation, so the scalar and batched simulators are interchangeable.
type Frame64 struct {
	V, K []Word
}

// NewFrame64 allocates a dual-rail frame buffer for the circuit. The
// buffer is reusable across frames via LoadFrame64DR.
func (n *Net) NewFrame64() *Frame64 {
	return &Frame64{
		V: make([]Word, len(n.C.Nodes)),
		K: make([]Word, len(n.C.Nodes)),
	}
}

// Broadcast64 converts one scalar three-valued value into its dual-rail
// broadcast (the same value under all 64 machines).
func Broadcast64(v V3) (val, known Word) {
	switch v {
	case Lo:
		return 0, AllOnes
	case Hi:
		return AllOnes, AllOnes
	default:
		return 0, 0
	}
}

// LoadFrame64DR broadcasts a scalar PI vector and state into the frame
// (nil means all-X, as in LoadFrame). Callers may afterwards overwrite
// individual state or input words to differentiate the 64 machines, e.g.
// XOR-flipping one state bit per machine for observability analysis.
func (n *Net) LoadFrame64DR(f *Frame64, vector, state []V3) {
	c := n.C
	for i, pi := range c.PIs {
		if vector == nil {
			f.V[pi], f.K[pi] = 0, 0
		} else {
			f.V[pi], f.K[pi] = Broadcast64(vector[i])
		}
	}
	for i, ff := range c.DFFs {
		if state == nil {
			f.V[ff], f.K[ff] = 0, 0
		} else {
			f.V[ff], f.K[ff] = Broadcast64(state[i])
		}
	}
}

// Inject64 is a 64-way fault injector: each of the 64 machines may force
// one line (stem or fanout branch) to a constant binary value, the
// parallel-fault generalization of Inject3. Build one per Net and Reset it
// between batches; the mask arrays are indexed by node (stems) and by flat
// edge (branches), so the hot evaluation loop needs no map lookups.
type Inject64 struct {
	net        *Net
	stemMask   []Word // per node: machines forcing this stem
	stemOnes   []Word // per node: machines forcing it to 1
	branchMask []Word // per edge: machines forcing this connection
	branchOnes []Word // per edge: machines forcing it to 1
	stemNodes  []netlist.NodeID
	hasStem    bool
	hasBranch  bool
}

// NewInject64 builds an empty injector for the circuit.
func (n *Net) NewInject64() *Inject64 {
	return &Inject64{
		net:        n,
		stemMask:   make([]Word, len(n.C.Nodes)),
		stemOnes:   make([]Word, len(n.C.Nodes)),
		branchMask: make([]Word, n.T.NumEdges()),
		branchOnes: make([]Word, n.T.NumEdges()),
	}
}

// Reset clears all injections for the next batch.
func (i *Inject64) Reset() {
	for _, id := range i.stemNodes {
		i.stemMask[id], i.stemOnes[id] = 0, 0
	}
	i.stemNodes = i.stemNodes[:0]
	if i.hasBranch {
		for e := range i.branchMask {
			i.branchMask[e], i.branchOnes[e] = 0, 0
		}
	}
	i.hasStem, i.hasBranch = false, false
}

// Add makes machine bit (0..63) force line l to the known value v,
// mirroring Inject3 semantics: a stem injection replaces the node's value
// for every reader and its own PO/PPO observation, a branch injection only
// the one connection.
func (i *Inject64) Add(bit uint, l netlist.Line, v V3) {
	if !v.Known() {
		panic("sim: Inject64 requires a known value")
	}
	m := Word(1) << bit
	if l.IsStem() {
		if i.stemMask[l.Node] == 0 {
			i.stemNodes = append(i.stemNodes, l.Node)
		}
		i.stemMask[l.Node] |= m
		if v == Hi {
			i.stemOnes[l.Node] |= m
		}
		i.hasStem = true
		return
	}
	t := i.net.T
	if l.Branch < 0 || int32(l.Branch) >= t.FanoutOff[l.Node+1]-t.FanoutOff[l.Node] {
		panic("sim: Inject64 branch line without a matching connection")
	}
	_, e := t.BranchEdge(l.Node, l.Branch)
	i.branchMask[e] |= m
	if v == Hi {
		i.branchOnes[e] |= m
	}
	i.hasBranch = true
}

// force overwrites the masked machines with the injected constant.
func force(v, k, mask, ones Word) (Word, Word) {
	return (v &^ mask) | ones, k | mask
}

// evalGate64DR evaluates one gate in the dual-rail domain. The three
// valued semantics match EvalGate3 bit-for-bit: a controlling known input
// decides the output even when siblings are unknown, XOR needs all inputs
// known.
func evalGate64DR(t netlist.GateType, insV, insK []Word) (Word, Word) {
	switch t {
	case netlist.Buf, netlist.DFF:
		return insV[0], insK[0]
	case netlist.Not:
		return ^insV[0] & insK[0], insK[0]
	case netlist.And, netlist.Nand:
		allOne := AllOnes
		anyZero := Word(0)
		for p, v := range insV {
			k := insK[p]
			allOne &= v & k
			anyZero |= ^v & k
		}
		k := allOne | anyZero
		v := allOne
		if t == netlist.Nand {
			v = ^v & k
		}
		return v, k
	case netlist.Or, netlist.Nor:
		anyOne := Word(0)
		allZero := AllOnes
		for p, v := range insV {
			k := insK[p]
			anyOne |= v & k
			allZero &= ^v & k
		}
		k := anyOne | allZero
		v := anyOne
		if t == netlist.Nor {
			v = ^v & k
		}
		return v, k
	case netlist.Xor, netlist.Xnor:
		x := Word(0)
		k := AllOnes
		for p, v := range insV {
			x ^= v
			k &= insK[p]
		}
		if t == netlist.Xnor {
			x = ^x
		}
		return x & k, k
	default:
		panic("sim: evalGate64DR on non-gate " + t.String())
	}
}

// Eval64DR evaluates the combinational block for 64 three-valued machines
// at once, with optional per-machine fault injection. The frame must hold
// the PI and PPI rails on entry (LoadFrame64DR); all other entries are
// overwritten. Scratch comes from the Net, so the call never allocates
// and must not run concurrently on one Net.
func (n *Net) Eval64DR(f *Frame64, inj *Inject64) {
	t := n.T
	insV := n.ins64[:t.MaxFanin]
	insK := n.ins64[t.MaxFanin:]
	if inj != nil && inj.hasStem {
		// A stem injection on a PI or PPI overrides the source value
		// itself, before any consumer reads it (cf. Eval3).
		for _, id := range inj.stemNodes {
			if typ := t.Types[id]; typ == netlist.Input || typ == netlist.DFF {
				f.V[id], f.K[id] = force(f.V[id], f.K[id], inj.stemMask[id], inj.stemOnes[id])
			}
		}
	}
	branch := inj != nil && inj.hasBranch
	for _, id := range t.Order {
		beg, end := t.FaninOff[id], t.FaninOff[id+1]
		for k := beg; k < end; k++ {
			v, kn := f.V[t.Fanin[k]], f.K[t.Fanin[k]]
			if branch && inj.branchMask[k] != 0 {
				v, kn = force(v, kn, inj.branchMask[k], inj.branchOnes[k])
			}
			insV[k-beg], insK[k-beg] = v, kn
		}
		v, k := evalGate64DR(t.Types[id], insV[:end-beg], insK[:end-beg])
		if inj != nil && inj.hasStem && inj.stemMask[id] != 0 {
			v, k = force(v, k, inj.stemMask[id], inj.stemOnes[id])
		}
		f.V[id], f.K[id] = v, k
	}
}

// NextState64DR extracts the PPO rails after Eval64DR into nextV/nextK
// (len(DFFs) each), respecting injections on DFF-feeding branches.
func (n *Net) NextState64DR(f *Frame64, inj *Inject64, nextV, nextK []Word) {
	t := n.T
	branch := inj != nil && inj.hasBranch
	for i, ff := range t.C.DFFs {
		e := t.FaninOff[ff]
		d := t.Fanin[e]
		v, k := f.V[d], f.K[d]
		if branch && inj.branchMask[e] != 0 {
			v, k = force(v, k, inj.branchMask[e], inj.branchOnes[e])
		}
		nextV[i], nextK[i] = v, k
	}
}
