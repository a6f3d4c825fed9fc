// Package faults enumerates the paper's gate delay fault universe: a
// slow-to-rise and a slow-to-fall fault on every stem and every fanout
// branch of a circuit.
package faults

import (
	"fmt"

	"fogbuster/internal/netlist"
)

// DelayType distinguishes the two gate delay fault polarities.
type DelayType uint8

const (
	// SlowToRise delays the 0->1 transition at the fault site.
	SlowToRise DelayType = iota
	// SlowToFall delays the 1->0 transition at the fault site.
	SlowToFall
)

// String returns "StR" or "StF", the paper's notation.
func (t DelayType) String() string {
	if t == SlowToRise {
		return "StR"
	}
	return "StF"
}

// Delay is one gate delay fault: a site line and a polarity.
type Delay struct {
	Line netlist.Line
	Type DelayType
}

// String formats the fault with circuit-independent IDs.
func (d Delay) String() string { return fmt.Sprintf("%v/%v", d.Line, d.Type) }

// Name formats the fault with signal names from the circuit.
func (d Delay) Name(c *netlist.Circuit) string {
	return fmt.Sprintf("%s/%v", c.LineName(d.Line), d.Type)
}

// AllDelay returns the complete gate delay fault universe of the circuit:
// for every line (stem or fanout branch) a slow-to-rise and a slow-to-fall
// fault, in line order. Its size is twice Circuit.NumLines, matching the
// per-circuit fault totals of the paper's Table 3.
func AllDelay(c *netlist.Circuit) []Delay {
	lines := c.Lines()
	out := make([]Delay, 0, 2*len(lines))
	for _, l := range lines {
		out = append(out, Delay{Line: l, Type: SlowToRise}, Delay{Line: l, Type: SlowToFall})
	}
	return out
}
