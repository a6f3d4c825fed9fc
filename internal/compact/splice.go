package compact

import (
	"math/rand"

	"fogbuster/internal/core"
	"fogbuster/internal/faults"
	"fogbuster/internal/logic"
	"fogbuster/internal/netlist"
	"fogbuster/internal/sim"
	"fogbuster/internal/tdsim"
)

// spliceAdjacent overlap-merges disjoint adjacent pairs of kept
// sequences: when the last k propagation frames of sequence A are
// three-valued-compatible with the first k synchronization frames of
// the next kept sequence B, the two sequences can share those frames if
// B is applied immediately after A. Each accepted splice shortens B's
// synchronization prefix by k vectors. Pairs are disjoint (an accepted
// splice consumes both sequences), so every confirmation is local to
// one pair and the walk stays deterministic.
func spliceAdjacent(c *netlist.Circuit, sum *core.Summary, kept []int, assigned map[int][]faults.Delay, opts Options, alg *logic.Algebra, stats *core.CompactionStats) {
	net := sim.NewNet(c)
	td := tdsim.New(net, alg)
	td.SetFullEval(opts.FullEval)
	ap := &applier{net: net, td: td}
	for k := 0; k+1 < len(kept); k++ {
		a := sum.Results[kept[k]].Seq
		b := sum.Results[kept[k+1]].Seq
		if saved := ap.trySplice(a, b, assigned[kept[k]], assigned[kept[k+1]], pairSeed(opts.Seed, k)); saved > 0 {
			stats.Splices++
			stats.SplicedFrames += saved
			k++
		}
	}
}

// pairSeed derives a deterministic confirmation-fill seed per pair
// (the splitmix64 finalizer, like the engine's per-fault seed).
func pairSeed(seed int64, pair int) int64 {
	return int64(sim.Mix(uint64(seed) ^ 0xC09DEAD5 ^ 0x9E3779B97F4A7C15*(uint64(pair)+1)))
}

// applier replays candidate splices on the concrete simulators.
type applier struct {
	net      *sim.Net
	td       *tdsim.Sim
	verdicts []bool // ConfirmBatch scratch
}

// trySplice attempts the widest acceptable overlap between A's
// propagation tail and B's synchronization head, mutating both
// sequences on success and returning the number of vectors saved.
func (ap *applier) trySplice(a, b *core.TestSequence, coverA, coverB []faults.Delay, seed int64) int {
	max := len(a.Prop)
	if len(b.Sync) < max {
		max = len(b.Sync)
	}
	for k := max; k >= 1; k-- {
		merged, ok := mergeFrames(a.Prop[len(a.Prop)-k:], b.Sync[:k])
		if !ok {
			continue
		}
		if ap.confirmPair(a, b, merged, k, coverA, coverB, seed) {
			copy(a.Prop[len(a.Prop)-k:], merged)
			b.Sync = b.Sync[k:]
			fault := a.Fault
			b.Follows = &fault
			return k
		}
	}
	return 0
}

// mergeFrames merges two equally long frame windows position by
// position: values agree, or one side is X and adopts the other. A hard
// conflict rejects the window.
func mergeFrames(x, y [][]sim.V3) ([][]sim.V3, bool) {
	out := make([][]sim.V3, len(x))
	for i := range x {
		vec := make([]sim.V3, len(x[i]))
		for j := range vec {
			xv, yv := x[i][j], y[i][j]
			switch {
			case xv == yv:
				vec[j] = xv
			case xv == sim.X:
				vec[j] = yv
			case yv == sim.X:
				vec[j] = xv
			default:
				return nil, false
			}
		}
		out[i] = vec
	}
	return out, true
}

// confirmPair checks a candidate splice exactly: under one
// deterministic concrete fill, every fault assigned to A must still be
// detected with A's propagation tail replaced by the merged frames, and
// every fault assigned to B must be detected when B (with its
// synchronization prefix cut) runs from the machine state A leaves
// behind.
func (ap *applier) confirmPair(a, b *core.TestSequence, merged [][]sim.V3, k int, coverA, coverB []faults.Delay, seed int64) bool {
	rng := rand.New(rand.NewSource(seed))
	propA := make([][]sim.V3, 0, len(a.Prop))
	propA = append(propA, a.Prop[:len(a.Prop)-k]...)
	propA = append(propA, merged...)
	ffA := ap.td.Frame(nil, a.Assumed, a.Sync, a.V1, a.V2, propA, rng)
	after := ap.after(ffA, rng)
	if !ap.confirmAll(ffA, coverA) {
		return false
	}
	ffB := ap.td.Frame(after, nil, b.Sync[k:], b.V1, b.V2, b.Prop, rng)
	return ap.confirmAll(ffB, coverB)
}

// after advances the good machine from the frame's latched state through
// the fast frame and the propagation frames and returns the state handed
// to the next sequence, its X bits filled from rng.
func (ap *applier) after(ff *tdsim.FastFrame, rng *rand.Rand) []sim.V3 {
	state := ff.S1
	for _, vec := range append([][]sim.V3{ff.V2}, ff.Prop...) {
		fv := ap.net.LoadFrame(vec, state)
		ap.net.Eval3(fv, nil)
		state = ap.net.NextState3(fv, nil)
	}
	return sim.XFill(state, rng)
}

// confirmAll runs the exact eight-valued confirmation for every fault
// in the cover against the concrete frame, on the word-parallel path
// (64 faults per machine word; verdicts are bit-identical to scalar
// tdsim.Confirm, so acceptance decisions are unchanged).
func (ap *applier) confirmAll(ff *tdsim.FastFrame, cover []faults.Delay) bool {
	vals := ap.td.Values(ff)
	ppos := ap.net.C.PPOs()
	goodS2 := make([]sim.V3, len(ppos))
	for i, ppo := range ppos {
		goodS2[i] = sim.V3(vals[ppo].Final())
	}
	if cap(ap.verdicts) < len(cover) {
		ap.verdicts = make([]bool, len(cover))
	}
	out := ap.verdicts[:len(cover)]
	ap.td.ConfirmBatch(ff, vals, goodS2, cover, out)
	for _, ok := range out {
		if !ok {
			return false
		}
	}
	return true
}
