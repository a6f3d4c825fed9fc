package tdsim

import (
	"math/rand"
	"testing"

	"fogbuster/internal/bench"
	"fogbuster/internal/faults"
	"fogbuster/internal/logic"
	"fogbuster/internal/netlist"
	"fogbuster/internal/sim"
)

// batchCircuits are the circuits the differential tests sweep: the exact
// paper benchmarks plus synthetic reconstructions with reconvergence,
// XOR-heavy logic and deep state.
func batchCircuits(t *testing.T) []*netlist.Circuit {
	t.Helper()
	cs := []*netlist.Circuit{bench.NewC17(), bench.NewS27()}
	for _, name := range []string{"s208", "s298", "s386"} {
		cs = append(cs, bench.ProfileByName(name).Circuit())
	}
	return cs
}

// TestConfirmBatchMatchesScalar is the differential property test of the
// word-parallel credit path: over random concrete two-frame situations
// on every test circuit, the batched verdict for EVERY delay fault of
// the universe (not only CPT candidates) must equal the scalar Confirm
// verdict, under both algebras. The scalar path is the reference oracle;
// any divergence is a bug in the batched encoding.
func TestConfirmBatchMatchesScalar(t *testing.T) {
	trials := 25
	if testing.Short() {
		trials = 8
	}
	for _, c := range batchCircuits(t) {
		net := sim.NewNet(c)
		all := faults.AllDelay(c)
		for _, alg := range []*logic.Algebra{logic.Robust, logic.NonRobust} {
			td := New(net, alg)
			rng := rand.New(rand.NewSource(int64(len(all))))
			out := make([]bool, len(all))
			for trial := 0; trial < trials; trial++ {
				ff := randomFrame(c, net, rng, trial%4)
				vals := td.Values(ff)
				goodS2 := make([]sim.V3, len(c.DFFs))
				for i, ppo := range c.PPOs() {
					goodS2[i] = sim.V3(vals[ppo].Final())
				}
				td.ConfirmBatch(ff, vals, goodS2, nil, all, out)
				for i, f := range all {
					if want := td.Confirm(ff, vals, goodS2, f); out[i] != want {
						t.Fatalf("%s/%s trial %d fault %s: batched %v, scalar %v",
							c.Name, alg.Name(), trial, f.Name(c), out[i], want)
					}
				}
			}
		}
	}
}

// TestDetectMatchesDetectScalar pins the full credit sweep: the batched
// Detect must return exactly the scalar DetectScalar fault list (same
// faults, same order), with and without a skip filter.
func TestDetectMatchesDetectScalar(t *testing.T) {
	trials := 20
	if testing.Short() {
		trials = 6
	}
	sawDetection := false
	for _, c := range batchCircuits(t) {
		net := sim.NewNet(c)
		td := New(net, logic.Robust)
		rng := rand.New(rand.NewSource(int64(len(c.Nodes))))
		for trial := 0; trial < trials; trial++ {
			ff := randomFrame(c, net, rng, 1+trial%3)
			var skip func(faults.Delay) bool
			if trial%2 == 1 {
				// Skip a deterministic pseudo-random half of the universe.
				skip = func(f faults.Delay) bool {
					return (int(f.Line.Node)+f.Line.Branch+int(f.Type))%2 == 0
				}
			}
			got := td.Detect(ff, skip)
			want := td.DetectScalar(ff, skip)
			if len(got) != len(want) {
				t.Fatalf("%s trial %d: batched %d faults, scalar %d", c.Name, trial, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s trial %d position %d: batched %s, scalar %s",
						c.Name, trial, i, got[i].Name(c), want[i].Name(c))
				}
			}
			if len(got) > 0 {
				sawDetection = true
			}
		}
	}
	if !sawDetection {
		t.Error("no detections on any circuit; differential test inert")
	}
}
