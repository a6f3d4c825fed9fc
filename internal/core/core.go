// Package core implements the combined gate delay fault ATPG system for
// non-scan sequential circuits: the paper's extended FOGBUSTER flow
// (Figure 4) coupling TDgen (local two-frame robust test generation) with
// SEMILET (forward fault effect propagation, reverse-time synchronization)
// and the fault simulators FAUSIM and TDsim.
//
// For every fault the engine runs the paper's steps: local test
// generation; propagation of the fault effect to a primary output when it
// only reached the state register; synchronization of the required initial
// state; with backtracking between the steps (a failed sequential phase
// demands the next local test from the resumable generator). After each
// successful generation the assembled sequence is fault simulated and all
// additionally detected faults are dropped from the target list.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fogbuster/internal/faults"
	"fogbuster/internal/logic"
	"fogbuster/internal/netlist"
	"fogbuster/internal/order"
	"fogbuster/internal/sim"
	"fogbuster/internal/testability"
	"fogbuster/internal/timing"
)

// Status classifies one fault at the end of the run, mirroring the
// columns of the paper's Table 3 (tested subsumes both explicit and
// simulation-credited detections).
type Status uint8

const (
	// Pending means the fault has not been processed yet.
	Pending Status = iota
	// Tested means a test sequence was explicitly generated.
	Tested
	// TestedBySim means fault simulation of another fault's sequence
	// detected this fault, so it was never explicitly targeted.
	TestedBySim
	// Untestable means the complete search space holds no robust test
	// (combinationally redundant or sequentially untestable).
	Untestable
	// Aborted means a backtrack budget ran out first.
	Aborted
)

// String returns a short label.
func (s Status) String() string {
	switch s {
	case Tested:
		return "tested"
	case TestedBySim:
		return "tested(sim)"
	case Untestable:
		return "untestable"
	case Aborted:
		return "aborted"
	default:
		return "pending"
	}
}

// Detected reports whether the status counts into the paper's "tested"
// column.
func (s Status) Detected() bool { return s == Tested || s == TestedBySim }

// Options configures an Engine. The zero value reproduces the paper's
// setup: robust algebra and 100+100 backtrack limits.
type Options struct {
	// Algebra selects the fault model; nil means logic.Robust.
	Algebra *logic.Algebra
	// LocalBacktracks is TDgen's per-fault budget; 0 means 100.
	LocalBacktracks int
	// SeqBacktracks is SEMILET's per-fault budget, shared by propagation
	// and synchronization across all local alternatives; 0 means 100.
	SeqBacktracks int
	// MaxFrames bounds propagation and synchronization depth; 0 means 32.
	MaxFrames int
	// DisableFaultSim turns off the post-generation fault simulation
	// credit (every fault is then explicitly targeted).
	DisableFaultSim bool
	// DisableValidation skips the independent end-to-end check of each
	// generated sequence.
	DisableValidation bool
	// StrictInit demands true synchronizing sequences from the all-X
	// power-up state. The default (optimistic) policy follows the 1990s
	// convention the paper's s27 numbers imply: state bits that no input
	// sequence can force are assumed as power-up values. Several ISCAS'89
	// machines have such bits (s27's G7=0 is reachable only from G7=0),
	// and under the strict policy their robust delay fault coverage
	// collapses; see EXPERIMENTS.md for the analysis.
	StrictInit bool
	// VariationBudget enables the paper's future-work timing refinement
	// (arrival and stabilization time analysis). Zero (the default) keeps
	// the pure robust handoff: transitioning or hazardous PPO values are
	// never passed to the sequential engine. A value v > 0 allows handing
	// over the final value of any PPO whose stabilization slack against
	// the fast clock period is at least v delay units: such a signal
	// settles before the fast capture edge even when fault-free paths run
	// almost v units slower than nominal. Small v approaches the
	// non-robust handoff.
	VariationBudget int
	// Seed drives the random X-fill; the default 0 is a fixed seed. The
	// X-fill stream is derived per fault from Seed and the fault index,
	// so a given Seed produces the same Summary at every worker count.
	Seed int64
	// Workers is the number of ATPG workers sharding the fault universe.
	// 0 (the default) uses runtime.NumCPU(); a negative value forces a
	// single worker. Results are bit-identical for every worker count.
	Workers int
	// Order selects the fault-targeting order (see internal/order): the
	// zero value and order.Natural keep the canonical line order;
	// order.Topological, order.SCOAP and order.ADI reorder the universe.
	// The ordering changes which faults end up explicitly targeted
	// versus credited by fault simulation, never the per-fault search
	// itself (each fault keeps the X-fill stream of its canonical
	// index), and results remain bit-identical at every worker count for
	// a given ordering.
	Order order.Heuristic
	// ScalarCredit, ScalarSearch and FullEval select the reference
	// oracles of the differential tests. The public façade does not
	// expose them; its tests reach them through an unexported hook.
	//
	// ScalarCredit runs the post-generation credit sweep on the scalar
	// reference path (one eight-valued confirmation per candidate)
	// instead of the word-parallel default (64 candidates per machine
	// word, see tdsim.ConfirmBatch). The two paths produce bit-identical
	// summaries — TestBatchedCreditInvariance pins it — so the knob
	// exists only for differential testing and benchmarking.
	ScalarCredit bool
	// ScalarSearch scores the generation-phase decision probes of tdgen
	// and semilet on their scalar reference oracles (one simulation per
	// sampled frame) instead of one lane-parallel pass. Both modes sample
	// identical frames and order every decision the same way, so
	// Summaries are bit-identical — TestBatchedSearchInvariance pins it —
	// and the knob exists only for differential testing and benchmarking.
	ScalarSearch bool
	// FullEval forces every simulation pass — confirmation, credit
	// sweep, propagation-phase search, splice re-confirmation — onto the
	// full levelized walk instead of the event-driven selective-trace
	// kernel that re-evaluates only fault-site fanout cones. The two
	// paths produce bit-identical Summaries (Detects included) at every
	// worker count, pinned by TestEventDrivenInvariance; the knob exists
	// as the reference oracle for differential tests and benchmarks.
	FullEval bool
	// MaxTargets, when positive, caps the run at the first MaxTargets
	// positions of the targeting permutation; every later fault is left
	// Pending (it may still be credited TestedBySim by an in-budget
	// sequence). The processed prefix is bit-identical to the same prefix
	// of an unbudgeted run — the semantics of a deterministic
	// cancellation — which makes budgeted runs on industrial-scale
	// circuits reproducible.
	MaxTargets int
	// ShardLo and ShardHi restrict the run to targeting positions
	// [ShardLo, ShardHi) of the ordering permutation: claiming stays
	// inside the window and every position outside it
	// is left as preloaded (Pending by default). ShardHi == 0 means the
	// end of the targeted prefix, so the zero values keep the ordinary
	// whole-universe run; both bounds are clamped to the prefix. A
	// mid-universe shard almost always wants DeferCredit too — the in-run
	// credit of positions [0, ShardLo) is unknowable here — which is why
	// the public façade couples the two.
	ShardLo, ShardHi int
	// DeferCredit turns off the merge loop's in-run simulation credit:
	// every position in the window is explicitly processed, each
	// committed sequence records its complete detection set
	// (TestSequence.Detects, exactly as under Compact), and no fault is
	// ever classified TestedBySim during the run. A later merge across
	// shard windows replays the credit chronology from the recorded sets
	// and reproduces the ordinary run bit for bit; see pkg/atpg
	// MergeResults. Compact is rejected (compaction needs the in-run
	// chronology).
	DeferCredit bool
	// Preload seeds the authoritative status array before the run with
	// the committed statuses of a checkpoint being resumed; positions the
	// run's window covers are then typically all Pending. Its length must
	// be zero (no preload) or the fault-universe size.
	Preload []Status
	// Compact records the full detection set of every generated sequence
	// (TestSequence.Detects) and the generation order (Summary.SeqOrder)
	// so that internal/compact can drop and splice sequences after the
	// run. It changes no fault status: the skip filter the credit pass
	// drops here only ever excludes faults the merge loop would refuse
	// to credit anyway.
	Compact bool
	// OnEvent, when non-nil, receives the merge loop's commit
	// notifications (see Event) synchronously on the RunContext
	// goroutine, strictly in targeting order. The callback must not call
	// back into the engine; it never changes the Summary — the stream is
	// pure observation of the commits.
	OnEvent func(Event)
	// Topology, when non-nil, is a prebuilt simulation topology for the
	// circuit, letting many engines over the same circuit share one CSR
	// view instead of re-levelizing per run (the Topology is immutable
	// once built and already shared by all workers of a run). It must
	// have been built from the same *netlist.Circuit handed to New; New
	// rejects a mismatch.
	Topology *sim.Topology
}

// workerCount resolves the Workers option.
func (o Options) workerCount() int {
	switch {
	case o.Workers > 0:
		return o.Workers
	case o.Workers < 0:
		return 1
	default:
		return runtime.NumCPU()
	}
}

// TestSequence is one complete delay fault test in the paper's time-frame
// model (Figure 2): initialization vectors under the slow clock, the
// two-pattern local test V1 (slow) and V2 (fast), and the propagation
// vectors under the slow clock. X entries are don't-cares.
type TestSequence struct {
	Fault      faults.Delay
	Sync       [][]sim.V3
	V1, V2     []sim.V3
	Prop       [][]sim.V3
	ObservePO  int // PO index observing the effect, or -1
	ObservePPO int // FF index capturing the effect, or -1
	// Assumed holds power-up state bits the optimistic initialization
	// policy committed to; nil for strictly synchronized tests.
	Assumed []sim.V3
	// Detects is the full set of faults this sequence detects under the
	// engine's concrete fill, recorded only when Options.Compact is set.
	// It is a superset of the faults the merge loop credited to the
	// sequence and need not contain Fault itself (the target's detection
	// is witnessed by the independent validator under a different fill).
	Detects []faults.Delay
	// Dropped marks a sequence removed by test-set compaction
	// (internal/compact): every fault it covered is detected by a kept
	// sequence.
	Dropped bool
	// Follows, when non-nil, names the sequence this one was spliced
	// after: the overlap merge cut this sequence's synchronization
	// prefix, so it is valid only applied immediately after the test for
	// the named fault.
	Follows *faults.Delay
}

// Len returns the vector count, the paper's per-test pattern cost
// (initialization and propagation included).
func (t *TestSequence) Len() int { return len(t.Sync) + 2 + len(t.Prop) }

// Vectors flattens the sequence in application order.
func (t *TestSequence) Vectors() [][]sim.V3 {
	out := make([][]sim.V3, 0, t.Len())
	out = append(out, t.Sync...)
	out = append(out, t.V1, t.V2)
	out = append(out, t.Prop...)
	return out
}

// FaultResult is the outcome for one fault.
type FaultResult struct {
	Fault  faults.Delay
	Status Status
	Seq    *TestSequence // non-nil only for explicitly tested faults
}

// Summary aggregates one run in the shape of a Table 3 row.
type Summary struct {
	Circuit    string
	Algebra    string
	Order      string // fault-ordering heuristic (internal/order)
	Results    []FaultResult
	Tested     int // explicit + simulation credit
	Explicit   int
	Untestable int
	Aborted    int
	Patterns   int // total vectors over all generated sequences
	Runtime    time.Duration
	// ValidationFailures counts generated sequences the independent
	// checker rejected; it must be zero and exists as a self-check.
	ValidationFailures int
	// SeqOrder lists the Results indices of explicitly tested faults in
	// generation (commit) order; test-set compaction replays it in
	// reverse.
	SeqOrder []int
	// Lo, Hi and Cursor expose the run's committed-prefix window:
	// targeting positions [Lo, Hi) were in range and [Lo, Cursor) are
	// committed. Cursor is the next position the merge loop would have
	// committed — Hi for a complete run, less for a cancelled one — and
	// is what a checkpoint resumes from: the chronology up to Cursor is
	// final and bit-identical to the same prefix of an uninterrupted run.
	Lo, Hi, Cursor int
	// Perm is the slice of the targeting permutation covering [Lo, Hi)
	// (the fault index at each window position), recorded only under
	// Options.DeferCredit so a partial shard result carries enough to be
	// merged without recomputing the ordering.
	Perm []int
	// Compaction is filled by internal/compact when the test set was
	// compacted; nil otherwise.
	Compaction *CompactionStats
}

// CompactionStats summarizes what internal/compact did to the test set.
type CompactionStats struct {
	Sequences      int // explicit sequences before compaction
	Kept           int // sequences surviving the reverse-order drop
	Dropped        int // sequences whose covered faults later tests detect
	PatternsBefore int // total vectors before compaction
	PatternsAfter  int // total vectors after dropping and splicing
	Splices        int // adjacent sequence pairs overlap-merged
	SplicedFrames  int // vectors saved by the overlap merges
	// Complete reports whether the recorded detection sets covered every
	// detected fault. On a summary produced without Options.Compact the
	// sets are absent, coverage is incomplete, and compact.Apply refuses
	// to splice (the reverse-order drop still ran); callers should treat
	// false as a refusal.
	Complete bool
}

// Engine runs the combined flow over a circuit. The per-fault search
// state (circuit view, sequential engine, simulators, X-fill stream)
// lives on workers cloned from the engine, so Run can shard the fault
// universe across any number of goroutines without sharing mutable
// state; the Engine itself holds only read-only inputs.
type Engine struct {
	c    *netlist.Circuit
	opts Options
	alg  *logic.Algebra
	meas *testability.Measures
	tim  *timing.Analysis // nil unless VariationBudget > 0
	topo *sim.Topology    // immutable CSR topology shared by all workers

	index map[faults.Delay]int
}

// New prepares an engine for the circuit, rejecting options no run
// should silently reinterpret: an unrecognized Options.Order (falling
// back to the natural order would let an experiment report a heuristic
// it never ran) and negative budgets or depths (the zero value already
// means "default"; a negative one is always a caller bug). The public
// façade (pkg/atpg) surfaces these as construction errors.
func New(c *netlist.Circuit, opts Options) (*Engine, error) {
	h, err := order.Parse(string(opts.Order))
	if err != nil {
		return nil, fmt.Errorf("core: %v", err)
	}
	opts.Order = h
	switch {
	case opts.LocalBacktracks < 0:
		return nil, fmt.Errorf("core: negative LocalBacktracks %d", opts.LocalBacktracks)
	case opts.SeqBacktracks < 0:
		return nil, fmt.Errorf("core: negative SeqBacktracks %d", opts.SeqBacktracks)
	case opts.MaxFrames < 0:
		return nil, fmt.Errorf("core: negative MaxFrames %d", opts.MaxFrames)
	case opts.VariationBudget < 0:
		return nil, fmt.Errorf("core: negative VariationBudget %d", opts.VariationBudget)
	case opts.MaxTargets < 0:
		return nil, fmt.Errorf("core: negative MaxTargets %d", opts.MaxTargets)
	case opts.ShardLo < 0:
		return nil, fmt.Errorf("core: negative ShardLo %d", opts.ShardLo)
	case opts.ShardHi < 0:
		return nil, fmt.Errorf("core: negative ShardHi %d", opts.ShardHi)
	case opts.ShardHi > 0 && opts.ShardLo > opts.ShardHi:
		return nil, fmt.Errorf("core: shard window [%d,%d) is inverted", opts.ShardLo, opts.ShardHi)
	case opts.DeferCredit && opts.Compact:
		return nil, fmt.Errorf("core: DeferCredit is incompatible with Compact (compaction needs the in-run credit chronology)")
	}
	if n := len(opts.Preload); n != 0 && n != 2*len(c.Lines()) {
		return nil, fmt.Errorf("core: Preload holds %d statuses, fault universe has %d", n, 2*len(c.Lines()))
	}
	if opts.Algebra == nil {
		opts.Algebra = logic.Robust
	}
	if opts.LocalBacktracks == 0 {
		opts.LocalBacktracks = 100
	}
	if opts.SeqBacktracks == 0 {
		opts.SeqBacktracks = 100
	}
	topo := opts.Topology
	if topo == nil {
		topo = sim.NewTopology(c)
	} else if topo.C != c {
		return nil, fmt.Errorf("core: shared topology was built for circuit %q, not %q", topo.C.Name, c.Name)
	}
	e := &Engine{
		c:    c,
		opts: opts,
		alg:  opts.Algebra,
		meas: testability.Compute(c),
		topo: topo,
	}
	if opts.VariationBudget > 0 {
		e.tim = timing.Analyze(c, nil)
	}
	return e, nil
}

// MustNew is New for callers whose options are compile-time constants
// (tests, benchmarks); it panics on the errors New reports.
func MustNew(c *netlist.Circuit, opts Options) *Engine {
	e, err := New(c, opts)
	if err != nil {
		panic(err)
	}
	return e
}

// faultOutcome is one worker's result for one claimed targeting
// position (a fault index when no ordering permutation is active). An
// outcome with status Pending marks a fault the worker skipped because
// the merge loop had already credited it, which is always safe: a
// status never returns to Pending.
type faultOutcome struct {
	idx      int
	status   Status
	seq      *TestSequence
	detected []faults.Delay // faults the sequence additionally detects
	valFail  int
}

// Run processes the complete delay fault universe and returns the
// summary. The universe is sharded over Options.Workers goroutines; each
// worker owns a full clone of the mutable ATPG state and an X-fill RNG
// reseeded per fault from Options.Seed and the fault's canonical index,
// and the merge loop commits outcomes strictly in targeting order,
// reconciling the post-generation simulation credit exactly as the
// serial flow would. The summary is therefore bit-identical for every
// worker count.
//
// When Options.Order names a heuristic, targeting order is the
// deterministic permutation internal/order computes; the canonical
// index still seeds each fault's X-fill stream, so a fault's search is
// the same under every ordering and only the credit chronology moves.
func (e *Engine) Run() *Summary {
	sum, _ := e.RunContext(context.Background())
	return sum
}

// RunContext is Run under a caller-controlled context. Cancelling the
// context stops the run promptly: workers give up their searches between
// decision alternatives, the merge loop commits no further positions,
// and RunContext returns the partial summary together with ctx's error.
// Every unprocessed fault is left Pending; the committed prefix is
// bit-identical to the same prefix of an uncancelled run, because
// cancellation only truncates the deterministic commit chronology, never
// reorders it.
func (e *Engine) RunContext(ctx context.Context) (*Summary, error) {
	start := time.Now() //lint:allow determinism Summary.Runtime is the one wall-clock field; canonical JSON zeroes it
	all := faults.AllDelay(e.c)
	n := len(all)
	e.index = make(map[faults.Delay]int, n)
	for i, f := range all {
		e.index[f] = i
	}
	perm := order.Permutation(e.c, all, e.opts.Order, e.opts.Seed)

	sum := &Summary{Circuit: e.c.Name, Algebra: e.alg.Name(), Order: e.opts.Order.Name()}
	sum.Results = make([]FaultResult, n)
	for i, f := range all {
		sum.Results[i].Fault = f
	}

	// nEff is the targeted prefix of the permutation: all of it, or the
	// first MaxTargets positions of a budgeted run. The run's window
	// [lo, hi) is that whole prefix, or the shard sub-range clamped to
	// it.
	nEff := n
	if e.opts.MaxTargets > 0 && e.opts.MaxTargets < n {
		nEff = e.opts.MaxTargets
	}
	lo, hi := e.opts.ShardLo, nEff
	if e.opts.ShardHi > 0 && e.opts.ShardHi < nEff {
		hi = e.opts.ShardHi
	}
	if lo > hi {
		lo = hi
	}
	sum.Lo, sum.Hi = lo, hi
	if e.opts.DeferCredit {
		// Natural order has no materialized permutation (nil means
		// identity); a shard result still records its window's slice.
		sum.Perm = make([]int, hi-lo)
		for i := range sum.Perm {
			sum.Perm[i] = lo + i
			if perm != nil {
				sum.Perm[i] = perm[lo+i]
			}
		}
	}

	// status is written only by the merge loop; workers read it to skip
	// faults that are already classified (a racy read can only cause a
	// harmless speculative generation, never a wrong result, because the
	// merge loop re-checks before committing). A resumed run seeds it
	// with the checkpoint's committed statuses.
	status := make([]atomic.Uint32, n)
	for i, st := range e.opts.Preload {
		if st != Pending {
			status[i].Store(uint32(st))
		}
	}
	committed := hi
	if hi > lo {
		workers := e.opts.workerCount()
		if workers > hi-lo {
			workers = hi - lo
		}
		rs := &runState{
			all:     all,
			perm:    perm,
			status:  status,
			claims:  &claimer{lo: lo, hi: hi},
			results: make(chan faultOutcome, workers),
		}
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				e.newWorker().run(ctx, rs)
			}()
		}
		committed = e.merge(ctx, sum, rs, lo, hi)
		wg.Wait()
	}
	sum.Cursor = committed

	for i := range all {
		st := Status(status[i].Load())
		sum.Results[i].Status = st
		switch st {
		case Tested:
			sum.Tested++
			sum.Explicit++
		case TestedBySim:
			sum.Tested++
		case Untestable:
			sum.Untestable++
		case Aborted:
			sum.Aborted++
		}
	}
	sum.Runtime = time.Since(start) //lint:allow determinism Summary.Runtime is the one wall-clock field; canonical JSON zeroes it
	if committed < hi {
		// Only a done context makes the merge loop stop short.
		return sum, ctx.Err()
	}
	return sum, nil
}

// merge commits worker outcomes strictly in targeting order (positions
// in the ordering permutation; fault order when perm is nil) over the
// window [lo, hi) and returns the final cursor — the next position it
// would have committed. Out-of-order arrivals wait in a reorder buffer;
// a committed Tested outcome applies its simulation credit to every
// still-pending fault (unless Options.DeferCredit moves that replay to
// merge time across shards), and an outcome for a fault that an earlier
// commit credited is discarded, exactly reproducing the serial
// processing order. Options.OnEvent observes every commit in that order.
// A done context stops the loop before the next commit.
func (e *Engine) merge(ctx context.Context, sum *Summary, rs *runState, lo, hi int) int {
	emit := e.opts.OnEvent
	reorder := make(map[int]faultOutcome)
	cursor := lo
	for cursor < hi {
		var o faultOutcome
		select {
		case o = <-rs.results:
		case <-ctx.Done():
			return cursor
		}
		reorder[o.idx] = o
		for {
			cur, ok := reorder[cursor]
			if !ok {
				break
			}
			delete(reorder, cursor)
			fi := rs.faultAt(cursor)
			if Status(rs.status[fi].Load()) == Pending {
				rs.status[fi].Store(uint32(cur.status))
				sum.ValidationFailures += cur.valFail
				if emit != nil && cur.status != Pending {
					emit(Event{Kind: EventFaultClassified, Index: fi, Fault: sum.Results[fi].Fault, Status: cur.status, ValFail: cur.valFail})
				}
				if cur.status == Tested {
					sum.Results[fi].Seq = cur.seq
					sum.Patterns += cur.seq.Len()
					sum.SeqOrder = append(sum.SeqOrder, fi)
					if e.opts.Compact || e.opts.DeferCredit {
						cur.seq.Detects = cur.detected
					}
					if emit != nil {
						emit(Event{Kind: EventSequenceGenerated, Index: fi, Fault: sum.Results[fi].Fault, Seq: cur.seq})
					}
					if !e.opts.DeferCredit {
						for _, f := range cur.detected {
							if j, ok := e.index[f]; ok && Status(rs.status[j].Load()) == Pending {
								rs.status[j].Store(uint32(TestedBySim))
								if emit != nil {
									emit(Event{Kind: EventCreditApplied, Index: j, Fault: f, Status: TestedBySim, By: sum.Results[fi].Fault, ByIndex: fi})
								}
							}
						}
					}
				}
			}
			cursor++
			if emit != nil {
				emit(Event{Kind: EventProgress, Done: cursor, Total: hi})
			}
		}
	}
	return cursor
}
