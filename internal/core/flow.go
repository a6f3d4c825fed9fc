package core

import (
	"context"
	"math/rand"
	"sync/atomic"

	"fogbuster/internal/faults"
	"fogbuster/internal/logic"
	"fogbuster/internal/netlist"
	"fogbuster/internal/semilet"
	"fogbuster/internal/sim"
	"fogbuster/internal/tdgen"
	"fogbuster/internal/tdsim"
)

// worker owns one full clone of the mutable per-fault ATPG state: its own
// circuit view (the simulators keep scratch buffers on it), sequential
// engine, fault simulators and X-fill RNG. Workers share only read-only
// inputs (circuit, testability measures, timing analysis, options) and
// the run's coordination state (runState).
type worker struct {
	e   *Engine
	net *sim.Net
	sem *semilet.Engine
	td  *tdsim.Sim

	// Per-fault search state. fseed is the fault's master seed; every
	// random stream of the search (X-fills, decision probes) is derived
	// from it, so the whole per-fault outcome is a pure function of
	// (engine, fault index) — the worker-count invariance contract.
	// attempts counts validated candidates of the current fault; each one
	// draws its X-fill from its own derived stream.
	fseed    int64
	attempts int
	rng      *rand.Rand // X-fill stream, reseeded before every fill

	// Scratch of confirm.
	ppos   []netlist.NodeID
	vals8  []logic.Value
	goodS2 []sim.V3
}

// Derived-stream tags for the per-fault probe seeds. X-fills use
// attempt<<6, so any tag ≥ 1<<30 is collision-free until an absurd
// 2^24 attempts.
const (
	probeStreamGen  = 1 << 30
	probeStreamProp = 1<<30 | 1
)

// newWorker clones the mutable engine state for one worker goroutine:
// the Net (simulator scratch) is private, the CSR topology behind it is
// the engine's shared immutable one.
func (e *Engine) newWorker() *worker {
	net := sim.NewNetOn(e.topo)
	td := tdsim.New(net, e.alg)
	td.SetFullEval(e.opts.FullEval)
	c := e.c
	return &worker{
		e:   e,
		net: net,
		sem: semilet.NewEngine(net, semilet.Options{MaxFrames: e.opts.MaxFrames, Meas: e.meas, FullEval: e.opts.FullEval}),
		td:  td,
		rng: rand.New(rand.NewSource(0)), //lint:allow determinism placeholder stream; every fill reseeds it from the fault seed first

		ppos:   c.PPOs(),
		vals8:  make([]logic.Value, len(c.Nodes)),
		goodS2: make([]sim.V3, len(c.DFFs)),
	}
}

// faultSeed derives the per-fault X-fill seed from the run seed and the
// fault index. Reseeding per fault is what makes the fill stream — and
// with it the whole Summary — independent of the order in which workers
// claim faults.
func faultSeed(seed int64, i int) int64 {
	return sim.DeriveSeed(seed, uint64(i))
}

// runState bundles the shared coordination state of one RunContext
// execution: the fault universe, the targeting permutation, the
// authoritative status array (written only by the merge loop), the
// position claimer, and the outcome channel into the merge loop.
type runState struct {
	all     []faults.Delay
	perm    []int
	status  []atomic.Uint32
	claims  *claimer
	results chan faultOutcome
}

// faultAt maps a targeting position to its fault index.
func (rs *runState) faultAt(p int) int {
	if rs.perm != nil {
		return rs.perm[p]
	}
	return p
}

// run claims targeting positions from the claimer until the universe is
// exhausted, sending exactly one outcome per claimed position. A fault
// the merge loop has already credited is skipped with an empty outcome;
// that check is advisory (a stale read costs a wasted generation that
// the merge loop discards), so no lock is ever held.
//
// A done context makes the worker return without completing its claimed
// position: the merge loop has already stopped committing, so a missing
// outcome can never stall it, and an interrupted search never produces a
// (possibly truncated, therefore wrong) outcome.
func (w *worker) run(ctx context.Context, rs *runState) {
	done := ctx.Done()
	for {
		if ctx.Err() != nil {
			return
		}
		p, ok := rs.claims.claim()
		if !ok {
			return
		}
		i := rs.faultAt(p)
		o := faultOutcome{idx: p}
		// A fault the merge loop already classified gets the empty skip.
		if Status(rs.status[i].Load()) == Pending {
			var interrupted bool
			o, interrupted = w.process(ctx, rs, p, i)
			if interrupted {
				return
			}
		}
		select {
		case rs.results <- o:
		case <-done:
			return
		}
	}
}

// process runs the complete per-fault pipeline — seeded X-fill stream,
// generation, post-generation credit sweep — for the fault at targeting
// position p (fault index i) and returns the outcome, or interrupted
// when a done context cut the search short (the outcome is then
// meaningless and must not be sent or committed). It is deterministic in
// (engine, fault index), which is what makes the Summary independent of
// the worker count and of how a run is split into shards.
func (w *worker) process(ctx context.Context, rs *runState, p, i int) (faultOutcome, bool) {
	w.fseed = faultSeed(w.e.opts.Seed, i)
	w.attempts = 0
	o := faultOutcome{idx: p}
	var ff *tdsim.FastFrame
	var interrupted bool
	o.seq, ff, o.status, o.valFail, interrupted = w.generate(ctx, rs.all[i])
	if interrupted || ctx.Err() != nil {
		// An outcome sent to the merge loop must always be the complete
		// deterministic one — the loop may commit it even after
		// cancellation — so a worker that noticed the done context bails
		// out entirely rather than, say, skipping the credit sweep.
		return o, true
	}
	if o.status == Tested && !w.e.opts.DisableFaultSim {
		// Post-generation fault simulation runs here, on the worker,
		// so the expensive CPT and confirmation work parallelizes;
		// only the status bookkeeping happens on the merge loop. The
		// skip filter reads racy status snapshots purely to save
		// work: the merge loop re-checks every detected fault. With
		// Compact or DeferCredit the filter is dropped so the
		// recorded detection set is complete and independent of
		// claim timing; that changes no credit decision, because a
		// fault still pending at commit time was also pending at
		// detect time and is in the filtered list either way. The
		// deferred-credit merge (pkg/atpg MergeResults) additionally
		// needs the complete set because the globally-pending faults
		// of other shards are unknowable here.
		skip := func(f faults.Delay) bool {
			j, ok := w.e.index[f]
			return !ok || Status(rs.status[j].Load()) != Pending
		}
		if w.e.opts.Compact || w.e.opts.DeferCredit {
			skip = nil
		}
		if w.e.opts.ScalarCredit {
			o.detected = w.td.DetectScalar(ff, skip)
		} else {
			o.detected = w.td.Detect(ff, skip)
		}
	}
	return o, false
}

// generate runs the extended FOGBUSTER flow (Figure 4) for one fault:
// local test generation, then — if the effect only reached the state
// register — forward propagation to a PO, then synchronization of the
// required initial state. A failure in a sequential phase backtracks into
// the local generator for the next distinct local test. On Tested it also
// returns the validated fast frame (the winning X-fill completion), so
// the credit sweep never re-derives it. It also returns how many
// candidate sequences the independent validator rejected, and whether a
// done context interrupted the search (the other return values are then
// meaningless and must not be committed).
func (w *worker) generate(ctx context.Context, f faults.Delay) (*TestSequence, *tdsim.FastFrame, Status, int, bool) {
	gen := tdgen.New(w.net, f, w.e.meas, tdgen.Options{
		Algebra:       w.e.alg,
		MaxBacktracks: w.e.opts.LocalBacktracks,
		Probe:         true,
		ScalarProbe:   w.e.opts.ScalarSearch,
		ProbeSeed:     faultSeed(w.fseed, probeStreamGen),
	})
	w.sem.SetProbe(faultSeed(w.fseed, probeStreamProp), w.e.opts.ScalarSearch)
	budget := semilet.NewBudget(w.e.opts.SeqBacktracks)
	valFail := 0

	for {
		// Checked once per local alternative: each tdgen/semilet phase is
		// budget-bounded, so this is the promptness granularity of
		// cancellation.
		if ctx.Err() != nil {
			return nil, nil, Pending, valFail, true
		}
		sol, st := gen.Next()
		switch st {
		case tdgen.Untestable:
			return nil, nil, Untestable, valFail, false
		case tdgen.Aborted:
			return nil, nil, Aborted, valFail, false
		}

		seq := &TestSequence{
			Fault:      f,
			V1:         sol.V1,
			V2:         sol.V2,
			ObservePO:  sol.ObservePO,
			ObservePPO: sol.ObservePPO,
		}

		// Forward propagation phase: only needed when the local test
		// observes the effect at a PPO.
		if sol.ObservePO < 0 {
			prop, pst := w.sem.Propagate(w.handoff(sol), budget)
			if pst == semilet.Aborted {
				return nil, nil, Aborted, valFail, false
			}
			if pst != semilet.Success {
				continue // backtrack into the local generator
			}
			seq.Prop = prop.Vectors
			seq.ObservePO = prop.PO
		}

		// Initialization phase: a synchronizing sequence to the required
		// state of the local test.
		sync, sst := w.sem.SynchronizeWith(sol.State0, budget, !w.e.opts.StrictInit)
		if sst == semilet.Aborted {
			return nil, nil, Aborted, valFail, false
		}
		if sst != semilet.Success {
			continue
		}
		seq.Sync = sync.Vectors
		seq.Assumed = sync.Assumed

		ff, ok := w.validate(seq)
		if !ok {
			valFail++
			continue
		}
		return seq, ff, Tested, valFail, false
	}
}

// handoff returns the state knowledge passed to the propagation phase.
// With the timing refinement enabled (the paper's future work), PPOs the
// robust model could not specify are lifted to known final values when
// they are fault-free, settle to a uniform value, and stabilize with at
// least VariationBudget delay units of slack before the fast capture
// edge.
func (w *worker) handoff(sol *tdgen.Solution) []sim.V5 {
	if w.e.tim == nil {
		return sol.PPOFinal
	}
	lifted := append([]sim.V5(nil), sol.PPOFinal...)
	for i, ppo := range w.e.c.PPOs() {
		if lifted[i] != sim.X5 {
			continue
		}
		set := sol.Sets[ppo]
		if set.Empty() || set&logic.CarrySet != 0 {
			continue
		}
		if w.e.tim.Slack(ppo) < int32(w.e.opts.VariationBudget) {
			continue
		}
		var fin [2]bool
		for _, v := range set.Values() {
			fin[v.Final()] = true
		}
		switch {
		case fin[1] && !fin[0]:
			lifted[i] = sim.O5
		case fin[0] && !fin[1]:
			lifted[i] = sim.Z5
		}
	}
	return lifted
}

// fastFrame fills the sequence's don't-cares from the worker's X-fill
// stream and derives the concrete fast frame it applies (tdsim.Frame).
// The frame aliases the scratch of the worker's tdsim.Sim until the
// next fill.
func (w *worker) fastFrame(seq *TestSequence) *tdsim.FastFrame {
	return w.td.Frame(nil, seq.Assumed, seq.Sync, seq.V1, seq.V2, seq.Prop, w.rng)
}

// confirm checks one concrete fast frame: fault-free two-frame values,
// the good captured state, then the full Confirm decision.
func (w *worker) confirm(ff *tdsim.FastFrame, f faults.Delay) bool {
	w.net.LoadFrame8Into(w.vals8, ff.V1, ff.V2, ff.S0, ff.S1)
	w.net.Eval8(w.e.alg, w.vals8, nil)
	for i, ppo := range w.ppos {
		w.goodS2[i] = sim.V3(w.vals8[ppo].Final())
	}
	return w.td.Confirm(ff, w.vals8, w.goodS2, f)
}

// validate replays the generated sequence with the fault injected and
// checks that the promised observation really happens: robust carrying at
// a PO in the fast frame, or a good/faulty difference at a PO after the
// propagation frames. The checker shares no code with the generator's
// search (it uses the concrete simulators), so it is an independent
// witness.
//
// Each candidate gets one X-fill, drawn from a stream derived from the
// fault seed and the attempt number. A test the generator got right holds
// for every value of its don't-cares, so a fill that does not confirm
// exposes a generator defect: the caller counts it as a validation
// failure and moves on to the next candidate.
func (w *worker) validate(seq *TestSequence) (*tdsim.FastFrame, bool) {
	w.rng.Seed(faultSeed(w.fseed, w.attempts<<6))
	w.attempts++
	ff := w.fastFrame(seq)
	if !w.confirm(ff, seq.Fault) {
		return nil, false
	}
	return ff, true
}
