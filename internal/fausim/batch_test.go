package fausim

import (
	"math/rand"
	"testing"

	"fogbuster/internal/bench"
	"fogbuster/internal/netlist"
	"fogbuster/internal/sim"
)

// scalarStuckCoverage is the pre-batching reference implementation:
// pair simulation of one faulty machine at a time with Eval3.
func scalarStuckCoverage(net *sim.Net, vectors [][]sim.V3, lines []netlist.Line) map[netlist.Line][2]bool {
	out := make(map[netlist.Line][2]bool, len(lines))
	for _, l := range lines {
		var det [2]bool
		for v := 0; v < 2; v++ {
			inj := &sim.Inject3{Line: l, Value: sim.V3(v)}
			var g, f []sim.V3
			detected := false
			for _, vec := range vectors {
				gv := net.LoadFrame(vec, g)
				net.Eval3(gv, nil)
				fv := net.LoadFrame(vec, f)
				net.Eval3(fv, inj)
				for _, po := range net.C.POs {
					a, b := gv[po], fv[po]
					if a.Known() && b.Known() && a != b {
						detected = true
					}
				}
				if detected {
					break
				}
				g = net.NextState3(gv, nil)
				f = net.NextState3(fv, inj)
			}
			det[v] = detected
		}
		out[l] = det
	}
	return out
}

// TestStuckCoverageMatchesScalar cross-checks the 64-way batched
// StuckCoverage against the scalar reference over every stem and branch
// of a real benchmark, with don't-cares in the vectors so the dual-rail X
// semantics are on the line too. The fault count exceeds 64, so batch
// splitting is exercised as well.
func TestStuckCoverageMatchesScalar(t *testing.T) {
	c := bench.ProfileByName("s298").Circuit()
	net := sim.NewNet(c)
	s := New(net)
	rng := rand.New(rand.NewSource(5))

	var vectors [][]sim.V3
	for k := 0; k < 6; k++ {
		v := make([]sim.V3, len(c.PIs))
		for i := range v {
			v[i] = sim.V3(rng.Intn(3)) // includes X
		}
		vectors = append(vectors, v)
	}

	var lines []netlist.Line
	for i := range c.Nodes {
		id := netlist.NodeID(i)
		lines = append(lines, netlist.Stem(id))
		if c.GateFanout(id) >= 2 {
			for b := range c.Nodes[i].Fanout {
				lines = append(lines, netlist.Line{Node: id, Branch: b})
			}
		}
	}

	got := s.StuckCoverage(vectors, lines)
	want := scalarStuckCoverage(net, vectors, lines)
	if len(got) != len(lines) {
		t.Fatalf("result size %d, want %d", len(got), len(lines))
	}
	for i, l := range lines {
		if got[i] != want[l] {
			t.Errorf("line %s: batched %v, scalar %v", c.LineName(l), got[i], want[l])
		}
	}
}

// requireMultiBatch fails the test unless the flip candidates of
// ObservablePPOs(good, nonSteady) span at least three 64-machine
// batches, the last one partial.
func requireMultiBatch(t *testing.T, good []sim.V3, nonSteady []bool) {
	t.Helper()
	n := 0
	for i, ns := range nonSteady {
		if ns && good[i].Known() {
			n++
		}
	}
	if n <= 128 || n%64 == 0 {
		t.Fatalf("fixture has %d flip candidates, want > 128 and not a multiple of 64", n)
	}
}

// TestObservablePPOsMatchesScalar cross-checks the batched observability
// analysis against per-flip PairDiff replays on real benchmarks. The
// s15850-class circuit's 534 flip-flops split into several batches, so
// verdicts from later and partial batches are checked too.
func TestObservablePPOsMatchesScalar(t *testing.T) {
	for _, tc := range []struct {
		name              string
		rounds, shortRuns int
	}{{"s298", 10, 10}, {"s15850", 2, 1}} {
		c := bench.ProfileByName(tc.name).Circuit()
		net := sim.NewNet(c)
		s := New(net)
		rng := rand.New(rand.NewSource(6))
		rounds := tc.rounds
		if testing.Short() {
			rounds = tc.shortRuns
		}
		for round := 0; round < rounds; round++ {
			good := make([]sim.V3, len(c.DFFs))
			nonSteady := make([]bool, len(c.DFFs))
			for i := range good {
				good[i] = sim.V3(rng.Intn(2))
				nonSteady[i] = rng.Intn(3) > 0
			}
			if len(c.DFFs) > 128 {
				requireMultiBatch(t, good, nonSteady)
			}
			var vectors [][]sim.V3
			for k := 0; k < 4; k++ {
				v := make([]sim.V3, len(c.PIs))
				for i := range v {
					v[i] = sim.V3(rng.Intn(2))
				}
				vectors = append(vectors, v)
			}

			got, _ := s.ObservablePPOs(good, nonSteady, vectors)
			for i, ns := range nonSteady {
				want := false
				if ns && good[i].Known() {
					faulty := append([]sim.V3(nil), good...)
					faulty[i] = sim.Not3(faulty[i])
					frame, po := s.PairDiff(good, faulty, vectors)
					want = frame >= 0 && po >= 0
				}
				if got[i] != want {
					t.Errorf("%s round %d ppo %d: batched %v, scalar %v", tc.name, round, i, got[i], want)
				}
			}
		}
	}
}
