package sim

import "fogbuster/internal/netlist"

// V5 is a five-valued D-algebra value for static-fault reasoning: the
// composite of a good-machine and a faulty-machine binary value. SEMILET
// uses it for the propagation phase, where the only good/faulty difference
// is in the state bits (the fault itself does not occur under the slow
// clock, Section 4 of the paper).
type V5 uint8

// The five values. D means good 1 / faulty 0; DB (D-bar) the reverse.
const (
	Z5 V5 = iota // 0 in both machines
	O5           // 1 in both machines
	X5           // unknown
	D5           // good 1, faulty 0
	B5           // good 0, faulty 1
)

// String returns the conventional notation.
func (v V5) String() string {
	switch v {
	case Z5:
		return "0"
	case O5:
		return "1"
	case D5:
		return "D"
	case B5:
		return "D'"
	default:
		return "X"
	}
}

// Good returns the good-machine component.
func (v V5) Good() V3 {
	switch v {
	case Z5, B5:
		return Lo
	case O5, D5:
		return Hi
	default:
		return X
	}
}

// Faulty returns the faulty-machine component.
func (v V5) Faulty() V3 {
	switch v {
	case Z5, D5:
		return Lo
	case O5, B5:
		return Hi
	default:
		return X
	}
}

// IsD reports whether the value carries a fault effect (D or D-bar).
func (v V5) IsD() bool { return v == D5 || v == B5 }

// FromPair combines good and faulty components; any unknown component
// makes the composite unknown, the usual conservative 5-valued collapse.
func FromPair(g, f V3) V5 {
	if g == X || f == X {
		return X5
	}
	switch {
	case g == f && g == Lo:
		return Z5
	case g == f:
		return O5
	case g == Hi:
		return D5
	default:
		return B5
	}
}

// FromV3 lifts a three-valued value into the composite domain.
func FromV3(v V3) V5 { return FromPair(v, v) }

// EvalGate5 evaluates one gate in the composite domain by evaluating the
// good and faulty components separately.
func EvalGate5(t netlist.GateType, ins []V5) V5 {
	var g, f [16]V3
	bg, bf := g[:0], f[:0]
	if len(ins) > len(g) {
		bg = make([]V3, 0, len(ins))
		bf = make([]V3, 0, len(ins))
	}
	for _, in := range ins {
		bg = append(bg, in.Good())
		bf = append(bf, in.Faulty())
	}
	return FromPair(EvalGate3(t, bg), EvalGate3(t, bf))
}

// Eval5 evaluates the combinational block in the composite domain. vals
// must hold PI and PPI values on entry.
func (n *Net) Eval5(vals []V5) {
	t := n.T
	ins := n.ins5
	for _, id := range t.Order {
		beg, end := t.FaninOff[id], t.FaninOff[id+1]
		buf := ins[:end-beg]
		for k := beg; k < end; k++ {
			buf[k-beg] = vals[t.Fanin[k]]
		}
		vals[id] = EvalGate5(t.Types[id], buf)
	}
}

// NextState5 extracts the PPO values after Eval5.
func (n *Net) NextState5(vals []V5) []V5 {
	t := n.T
	next := make([]V5, len(t.C.DFFs))
	for i, ff := range t.C.DFFs {
		next[i] = vals[t.Fanin[t.FaninOff[ff]]]
	}
	return next
}

// LoadFrame5 mirrors LoadFrame for the composite domain.
func (n *Net) LoadFrame5(vector, state []V5) []V5 {
	c := n.C
	vals := make([]V5, len(c.Nodes))
	for i := range vals {
		vals[i] = X5
	}
	for i, pi := range c.PIs {
		if vector != nil {
			vals[pi] = vector[i]
		}
	}
	for i, ff := range c.DFFs {
		if state != nil {
			vals[ff] = state[i]
		}
	}
	return vals
}
