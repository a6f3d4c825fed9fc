package main

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"

	"fogbuster/internal/core"
	"fogbuster/internal/faults"
	"fogbuster/internal/fausim"
	"fogbuster/internal/logic"
	"fogbuster/internal/netlist"
	"fogbuster/internal/order"
	"fogbuster/internal/semilet"
	"fogbuster/internal/sim"
	"fogbuster/internal/tdgen"
	"fogbuster/internal/tdsim"
	"fogbuster/internal/testability"
)

// The replay re-enacts internal/core's serial per-fault flow
// (internal/core/flow.go: process, generate, validate, fastFrameWith, and
// the merge loop's in-order credit) through exported calls only, with a
// span around every call into a layer. The engine exposes no hooks, so
// this is the only way to attribute its time to layers without editing
// it. To be trusted the replay must draw exactly the engine's random
// streams: the seed derivation below is a copy of core's, and every
// replayed run is compared with a core run fault for fault
// (compareWithCore).
//
// The replay stops with errFillPath where core would fall back to its
// 64-lane X-fill retry (confirmLanes), because no workload reaches it:
// every candidate so far is confirmed by its lane-0 fill. A copy of that
// path could not be checked against the engine, so it is not kept.

// Derived-stream tags of the per-fault probe seeds (core's probeStreamGen
// and probeStreamProp).
const (
	probeStreamGen  = 1 << 30
	probeStreamProp = 1<<30 | 1
)

// faultSeed is core's per-fault seed derivation (splitmix64 finalizer).
func faultSeed(seed int64, i int) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*(uint64(i)+1)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// layerSpans names every span the replay records around a layer call;
// their sum over a run is what trace.coverage compares with the
// untraced engine's wall time.
var layerSpans = []string{
	"testability.compute", "sim.topology", "order.perm",
	"tdgen.new", "tdgen.next", "semilet.propagate", "semilet.sync",
	"tdsim.confirm", "tdsim.detect", "core.commit",
}

// errFillPath reports a candidate whose lane-0 fill did not confirm: core
// would go on to its 64-lane retry, which the replay does not re-enact.
var errFillPath = errors.New("replay: a candidate's lane-0 fill failed, so core takes its 64-lane X-fill path, which the replay does not re-enact")

// layerCounts are the work counters recorded at the same boundaries as
// the spans.
type layerCounts struct {
	nextCalls, found, genBacktracks      int
	propCalls, propOK, syncCalls, syncOK int
	seqBacktracks                        int
	validations                          int
	detected, credited                   int
}

// replayResult is the replayed run's outcome in core's terms.
type replayResult struct {
	status   []core.Status
	seqs     []*core.TestSequence
	patterns int
}

// replay holds the per-run state of one replayed engine: the mirror of a
// core worker plus the merge loop's status array.
type replay struct {
	c     *netlist.Circuit
	opts  core.Options
	alg   *logic.Algebra
	rec   *recorder
	cnt   *layerCounts
	trace int64

	meas *testability.Measures
	net  *sim.Net
	sem  *semilet.Engine
	td   *tdsim.Sim
	ppos []netlist.NodeID

	fseed    int64
	attempts int
	lane0    *rand.Rand // reseeded per attempt before every draw

	ffS0, ffS1, ffV1, ffV2 []sim.V3
	frame3, goodS2         []sim.V3
	vals8                  []logic.Value
	ff                     tdsim.FastFrame
}

// orDefault resolves core's "zero means the paper's default" budgets.
func orDefault(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}

// runReplay replays core.New(c, opts).Run() serially. It honours the
// options the workloads use — Order, Seed, MaxTargets, DeferCredit — and
// assumes every other field is zero. Spans carry trace ids group<<32 |
// fault index.
func runReplay(c *netlist.Circuit, opts core.Options, rec *recorder, cnt *layerCounts, group int64) (*replayResult, error) {
	h, err := order.Parse(string(opts.Order))
	if err != nil {
		return nil, err
	}
	r := newReplay(c, opts, rec, cnt, group)

	all := faults.AllDelay(c)
	index := make(map[faults.Delay]int, len(all))
	for i, f := range all {
		index[f] = i
	}
	sp := rec.begin("order.perm", r.trace, -1)
	perm := order.Permutation(c, all, h, opts.Seed)
	rec.end(sp)

	n := len(all)
	nEff := n
	if opts.MaxTargets > 0 && opts.MaxTargets < n {
		nEff = opts.MaxTargets
	}
	res := &replayResult{status: make([]core.Status, n), seqs: make([]*core.TestSequence, n)}
	var skip func(faults.Delay) bool
	if !opts.DeferCredit {
		skip = func(f faults.Delay) bool {
			j, ok := index[f]
			return !ok || res.status[j] != core.Pending
		}
	}
	for p := 0; p < nEff; p++ {
		i := p
		if perm != nil {
			i = perm[p]
		}
		if res.status[i] != core.Pending {
			continue // credited by an earlier sequence
		}
		root := rec.begin("fault", r.trace|int64(i), -1)
		seq, ff, st, err := r.generate(all[i], i, root)
		if err != nil {
			return nil, err
		}
		var detected []faults.Delay
		if st == core.Tested {
			sp := rec.begin("tdsim.detect", r.trace|int64(i), root)
			detected = r.td.Detect(ff, skip)
			rec.end(sp)
			cnt.detected += len(detected)
		}

		sp := rec.begin("core.commit", r.trace|int64(i), root)
		res.status[i] = st
		if st == core.Tested {
			res.seqs[i] = seq
			res.patterns += seq.Len()
			if opts.DeferCredit {
				seq.Detects = detected
			} else {
				for _, f := range detected {
					if j, ok := index[f]; ok && res.status[j] == core.Pending {
						res.status[j] = core.TestedBySim
						cnt.credited++
					}
				}
			}
		}
		rec.end(sp)
		rec.end(root)
	}
	return res, nil
}

// newReplay builds the engine's per-run state (core's New and newWorker):
// testability measures, the simulation topology under the default cone
// policy, the sequential and two-frame simulators, and the worker buffers.
func newReplay(c *netlist.Circuit, opts core.Options, rec *recorder, cnt *layerCounts, group int64) *replay {
	r := &replay{c: c, opts: opts, alg: logic.Robust, rec: rec, cnt: cnt, trace: group << 32}
	sp := rec.begin("testability.compute", r.trace, -1)
	r.meas = testability.Compute(c)
	rec.end(sp)
	sp = rec.begin("sim.topology", r.trace, -1)
	topo := sim.NewTopology(c)
	policy, _ := sim.ParseConePolicy("") // the engine's default policy
	topo.SetConePolicy(policy)
	rec.end(sp)
	r.net = sim.NewNetOn(topo)
	r.sem = semilet.NewEngine(r.net, semilet.Options{MaxFrames: opts.MaxFrames, Meas: r.meas})
	r.td = tdsim.New(r.net, r.alg)

	r.ppos = c.PPOs()
	r.ffS0 = make([]sim.V3, len(c.DFFs))
	r.ffS1 = make([]sim.V3, len(c.DFFs))
	r.ffV1 = make([]sim.V3, len(c.PIs))
	r.ffV2 = make([]sim.V3, len(c.PIs))
	r.frame3 = make([]sim.V3, len(c.Nodes))
	r.vals8 = make([]logic.Value, len(c.Nodes))
	r.goodS2 = make([]sim.V3, len(c.DFFs))
	r.lane0 = rand.New(rand.NewSource(0))
	return r
}

// generate is core's worker.generate for fault f (canonical index i):
// local generation, propagation, synchronization and validation, with
// backtracking into the local generator.
func (r *replay) generate(f faults.Delay, i int, root int32) (*core.TestSequence, *tdsim.FastFrame, core.Status, error) {
	r.fseed = faultSeed(r.opts.Seed, i)
	r.attempts = 0
	tid := r.trace | int64(i)
	sp := r.rec.begin("tdgen.new", tid, root)
	gen := tdgen.New(r.net, f, r.meas, tdgen.Options{
		Algebra:       r.alg,
		MaxBacktracks: orDefault(r.opts.LocalBacktracks, 100),
		Probe:         true,
		ProbeSeed:     faultSeed(r.fseed, probeStreamGen),
	})
	r.rec.end(sp)
	r.sem.SetProbe(faultSeed(r.fseed, probeStreamProp), false)
	budget := semilet.NewBudget(orDefault(r.opts.SeqBacktracks, 100))
	defer func() {
		r.cnt.genBacktracks += gen.Backtracks()
		r.cnt.seqBacktracks += budget.Used
	}()

	for {
		sp := r.rec.begin("tdgen.next", tid, root)
		sol, st := gen.Next()
		r.rec.end(sp)
		r.cnt.nextCalls++
		switch st {
		case tdgen.Untestable:
			return nil, nil, core.Untestable, nil
		case tdgen.Aborted:
			return nil, nil, core.Aborted, nil
		}
		r.cnt.found++
		seq := &core.TestSequence{
			Fault:      f,
			V1:         sol.V1,
			V2:         sol.V2,
			ObservePO:  sol.ObservePO,
			ObservePPO: sol.ObservePPO,
		}
		if sol.ObservePO < 0 {
			sp := r.rec.begin("semilet.propagate", tid, root)
			prop, pst := r.sem.Propagate(sol.PPOFinal, budget)
			r.rec.end(sp)
			r.cnt.propCalls++
			if pst == semilet.Aborted {
				return nil, nil, core.Aborted, nil
			}
			if pst != semilet.Success {
				continue
			}
			r.cnt.propOK++
			seq.Prop = prop.Vectors
			seq.ObservePO = prop.PO
		}
		sp = r.rec.begin("semilet.sync", tid, root)
		sync, sst := r.sem.SynchronizeWith(sol.State0, budget, true)
		r.rec.end(sp)
		r.cnt.syncCalls++
		if sst == semilet.Aborted {
			return nil, nil, core.Aborted, nil
		}
		if sst != semilet.Success {
			continue
		}
		r.cnt.syncOK++
		seq.Sync = sync.Vectors
		seq.Assumed = sync.Assumed

		ff, err := r.validate(seq, tid, root)
		if err != nil {
			return nil, nil, 0, err
		}
		return seq, ff, core.Tested, nil
	}
}

// validate is core's worker.validate up to its lane-0 verdict: the
// scalar fast frame of the attempt's first X-fill and its confirmation.
func (r *replay) validate(seq *core.TestSequence, tid int64, root int32) (*tdsim.FastFrame, error) {
	r.lane0.Seed(faultSeed(r.fseed, r.attempts<<6))
	r.attempts++
	r.cnt.validations++
	sp := r.rec.begin("tdsim.confirm", tid, root)
	ff := r.fastFrameWith(seq, r.lane0)
	ok := r.confirm(ff, seq.Fault)
	r.rec.end(sp)
	if !ok {
		return nil, errFillPath
	}
	return ff, nil
}

// fillInto is core's XFill into a caller-owned buffer.
func fillInto(dst, vec []sim.V3, rng *rand.Rand) {
	for i, v := range vec {
		if v == sim.X {
			dst[i] = sim.V3(rng.Intn(2))
		} else {
			dst[i] = v
		}
	}
}

// fastFrameWith is core's fast-frame derivation: random power-up state,
// synchronization replay, the two fast-frame vectors and the latched
// test state, every don't-care drawn from rng in core's order.
func (r *replay) fastFrameWith(seq *core.TestSequence, rng *rand.Rand) *tdsim.FastFrame {
	state := r.ffS0
	for i := range state {
		if seq.Assumed != nil && seq.Assumed[i].Known() {
			state[i] = seq.Assumed[i]
		} else {
			state[i] = sim.V3(rng.Intn(2))
		}
	}
	syncV := fausim.FillSequence(seq.Sync, rng)
	if len(syncV) > 0 {
		steps := r.net.SeqSim3(state, syncV)
		copy(state, steps[len(steps)-1].State)
	}
	for i := range state {
		if state[i] == sim.X {
			state[i] = sim.V3(rng.Intn(2))
		}
	}
	fillInto(r.ffV1, seq.V1, rng)
	fillInto(r.ffV2, seq.V2, rng)
	r.net.LoadFrameInto(r.frame3, r.ffV1, state)
	r.net.Eval3(r.frame3, nil)
	t := r.net.T
	for i, ff := range r.c.DFFs {
		v := r.frame3[t.Fanin[t.FaninOff[ff]]]
		if v == sim.X {
			v = sim.V3(rng.Intn(2))
		}
		r.ffS1[i] = v
	}
	r.ff = tdsim.FastFrame{
		V1: r.ffV1, V2: r.ffV2,
		S0: state, S1: r.ffS1,
		Prop: fausim.FillSequence(seq.Prop, rng),
	}
	return &r.ff
}

// confirm is core's worker.confirm: fault-free two-frame values, the good
// captured state, then tdsim's exact decision.
func (r *replay) confirm(ff *tdsim.FastFrame, f faults.Delay) bool {
	r.net.LoadFrame8Into(r.vals8, ff.V1, ff.V2, ff.S0, ff.S1)
	r.net.Eval8(r.alg, r.vals8, nil)
	for i, ppo := range r.ppos {
		r.goodS2[i] = sim.V3(r.vals8[ppo].Final())
	}
	return r.td.Confirm(ff, r.vals8, r.goodS2, f)
}

// compareWithCore checks the replay against an untraced core run of the
// same options: every fault's status and test sequence and the pattern
// count must be identical.
func compareWithCore(name string, sum *core.Summary, got *replayResult) error {
	if len(sum.Results) != len(got.status) {
		return fmt.Errorf("%s: replay covers %d faults, core %d", name, len(got.status), len(sum.Results))
	}
	for i, fr := range sum.Results {
		if fr.Status != got.status[i] {
			return fmt.Errorf("%s: fault %d (%v) replayed %v, core %v", name, i, fr.Fault, got.status[i], fr.Status)
		}
		if !reflect.DeepEqual(fr.Seq, got.seqs[i]) {
			return fmt.Errorf("%s: fault %d (%v) replayed a different test sequence", name, i, fr.Fault)
		}
	}
	if sum.Patterns != got.patterns {
		return fmt.Errorf("%s: replay patterns=%d, core %d", name, got.patterns, sum.Patterns)
	}
	return nil
}
