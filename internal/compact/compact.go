// Package compact performs test-set compaction over a finished core
// run. Two phases shrink the set without losing a single detected
// fault:
//
//  1. Reverse-order drop: the explicit sequences are re-examined in
//     reverse generation order against the detection sets the engine
//     recorded (TestSequence.Detects, written under Options.Compact). A
//     sequence whose every covered fault is already covered by a
//     later-kept sequence is dropped — the classic reverse-order fault
//     simulation argument: late sequences were generated for hard
//     faults and tend to detect the easy targets of early sequences.
//  2. Overlap merge: adjacent kept sequences are spliced pairwise where
//     the tail of the first sequence's propagation frames is
//     three-valued-compatible with the head of the second sequence's
//     synchronization frames. A splice is accepted only after exact
//     eight-valued re-confirmation (tdsim.Confirm) of every fault
//     assigned to either sequence under a deterministic concrete fill,
//     with the second sequence's frames evaluated from the machine
//     state the first sequence leaves behind.
//
// Both phases are deterministic functions of the Summary and the seed,
// so a compacted Summary inherits the engine's
// bit-identical-at-every-worker-count contract (§4 of DESIGN.md).
package compact

import (
	"fogbuster/internal/core"
	"fogbuster/internal/faults"
	"fogbuster/internal/logic"
	"fogbuster/internal/netlist"
)

// Options configures Apply.
type Options struct {
	// Algebra must match the algebra of the run; nil means logic.Robust.
	Algebra *logic.Algebra
	// Seed drives the deterministic X-fill of the splice confirmations;
	// pass the run's Options.Seed.
	Seed int64
	// FullEval forces the splice re-confirmations onto the full
	// levelized walks (the reference oracle); pass the run's
	// Options.FullEval. Acceptance decisions are identical either way.
	FullEval bool
}

// Apply compacts the summary's test set in place: dropped sequences are
// flagged (TestSequence.Dropped), spliced sequences lose the
// overlapping synchronization frames, and the statistics are stored on
// sum.Compaction and returned. Fault statuses and Summary.Tested are
// never touched — compaction only reshapes how the detected faults are
// covered.
func Apply(c *netlist.Circuit, sum *core.Summary, opts Options) *core.CompactionStats {
	alg := opts.Algebra
	if alg == nil {
		alg = logic.Robust
	}
	stats := &core.CompactionStats{}
	sum.Compaction = stats

	index := make(map[faults.Delay]int, len(sum.Results))
	for i, r := range sum.Results {
		index[r.Fault] = i
	}
	seqs := sum.SeqOrder
	stats.Sequences = len(seqs)
	for _, si := range seqs {
		stats.PatternsBefore += sum.Results[si].Seq.Len()
	}

	kept, assigned, complete := reverseDrop(sum, seqs, index, stats)
	stats.Complete = complete
	// Splicing rewrites frames and re-confirms only the faults assigned
	// to the pair, so it is sound only when the assignment covers every
	// detected fault. A summary produced without Options.Compact lacks
	// the recorded detection sets (simulation-credited faults are then
	// unassigned) and must keep its sequences untouched.
	if complete {
		spliceAdjacent(c, sum, kept, assigned, opts, alg, stats)
	}

	stats.Kept = len(kept)
	for _, si := range kept {
		stats.PatternsAfter += sum.Results[si].Seq.Len()
	}
	return stats
}

// reverseDrop walks the sequences in reverse generation order, keeping a
// sequence only when it covers a detected fault no later-kept sequence
// covers. It returns the kept sequences in generation order plus, per
// kept sequence, the faults it is responsible for (each detected fault
// is assigned to exactly one kept sequence), and whether that
// assignment covers the complete detected universe. With recorded
// detection sets coverage is complete by construction: an explicit
// fault is covered by its own sequence, and a credited fault is listed
// in the Detects of the sequence whose credit classified it. Without
// them (a run made without Options.Compact) the credited faults stay
// unassigned and complete is false.
func reverseDrop(sum *core.Summary, seqs []int, index map[faults.Delay]int, stats *core.CompactionStats) ([]int, map[int][]faults.Delay, bool) {
	covered := make([]bool, len(sum.Results))
	assigned := make(map[int][]faults.Delay, len(seqs))
	var kept []int
	for k := len(seqs) - 1; k >= 0; k-- {
		si := seqs[k]
		seq := sum.Results[si].Seq
		var mine []faults.Delay
		take := func(f faults.Delay) {
			fi, ok := index[f]
			if ok && sum.Results[fi].Status.Detected() && !covered[fi] {
				covered[fi] = true
				mine = append(mine, f)
			}
		}
		take(seq.Fault)
		for _, f := range seq.Detects {
			take(f)
		}
		if len(mine) == 0 {
			seq.Dropped = true
			stats.Dropped++
			continue
		}
		kept = append(kept, si)
		assigned[si] = mine
	}
	// The reverse walk built the kept list back to front.
	for i, j := 0, len(kept)-1; i < j; i, j = i+1, j-1 {
		kept[i], kept[j] = kept[j], kept[i]
	}
	complete := true
	for i := range sum.Results {
		if sum.Results[i].Status.Detected() && !covered[i] {
			complete = false
			break
		}
	}
	return kept, assigned, complete
}
