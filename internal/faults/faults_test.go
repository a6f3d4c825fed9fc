package faults

import (
	"strings"
	"testing"

	"fogbuster/internal/bench"
)

func TestDelayUniverseS27(t *testing.T) {
	c := bench.NewS27()
	all := AllDelay(c)
	if len(all) != 50 {
		t.Fatalf("s27 delay faults = %d, want 50 (the paper's 39+11)", len(all))
	}
	// Every line appears exactly twice, once per polarity.
	seen := make(map[string]int)
	for _, f := range all {
		seen[c.LineName(f.Line)]++
	}
	for name, n := range seen {
		if n != 2 {
			t.Errorf("line %s has %d faults, want 2", name, n)
		}
	}
	if len(seen) != 25 {
		t.Errorf("distinct lines = %d, want 25", len(seen))
	}
}

func TestFaultNames(t *testing.T) {
	c := bench.NewS27()
	all := AllDelay(c)
	foundBranch := false
	for _, f := range all {
		name := f.Name(c)
		if strings.Contains(name, "->") {
			foundBranch = true
		}
		if !strings.HasSuffix(name, "/StR") && !strings.HasSuffix(name, "/StF") {
			t.Errorf("bad fault name %q", name)
		}
	}
	if !foundBranch {
		t.Error("no branch fault names generated")
	}
	if SlowToRise.String() != "StR" || SlowToFall.String() != "StF" {
		t.Error("DelayType names wrong")
	}
}

func TestDelayUniverseMatchesPaperTotals(t *testing.T) {
	for _, p := range bench.Profiles {
		c := p.Circuit()
		if got, want := len(AllDelay(c)), p.Paper.Faults(); got != want {
			t.Errorf("%s: %d faults, want %d", p.Name, got, want)
		}
	}
}
