// Benchmarks regenerating every table and figure of the paper's
// evaluation; see DESIGN.md §3 for the experiment index.
//
//	Table 1/2  -> BenchmarkTable1AndAlgebra, BenchmarkTable2NotAlgebra
//	Table 3    -> BenchmarkTable3/<circuit> (full flow, 100+100 limits)
//	Figure 1   -> BenchmarkGoodMachineSim (FSM model simulation)
//	Figure 2   -> BenchmarkTimeFrameSim (two-frame fast-cycle evaluation)
//	Figure 3   -> BenchmarkTDgenLocal/<circuit> (local generation flow)
//	Figure 4   -> BenchmarkFOGBUSTER/<circuit> (all phases, per fault)
//	Sec. 6     -> BenchmarkAblationNonRobust, BenchmarkAblationStrictInit
package fogbuster

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"fogbuster/internal/bench"
	"fogbuster/internal/compact"
	"fogbuster/internal/core"
	"fogbuster/internal/faults"
	"fogbuster/internal/logic"
	"fogbuster/internal/order"
	"fogbuster/internal/semilet"
	"fogbuster/internal/sim"
	"fogbuster/internal/tdgen"
	"fogbuster/internal/tdsim"
	"fogbuster/internal/testability"
)

// table3Set is the subset run by default; the big pipeline circuits take
// seconds per iteration and run only with -timeout headroom.
var table3Set = []string{"s27", "s208", "s298", "s344", "s349", "s386", "s420", "s641", "s713", "s838", "s1196", "s1238"}

// BenchmarkTable1AndAlgebra measures the eight-valued AND table (the
// innermost operation of every implication in TDgen).
func BenchmarkTable1AndAlgebra(b *testing.B) {
	alg := logic.Robust
	var sink logic.Value
	for i := 0; i < b.N; i++ {
		x := logic.Value(i & 7)
		y := logic.Value((i >> 3) & 7)
		sink = alg.And(x, y)
	}
	_ = sink
}

// BenchmarkTable2NotAlgebra measures the inverter table.
func BenchmarkTable2NotAlgebra(b *testing.B) {
	alg := logic.Robust
	var sink logic.Value
	for i := 0; i < b.N; i++ {
		sink = alg.Not(logic.Value(i & 7))
	}
	_ = sink
}

// BenchmarkTable3 regenerates one Table 3 row per iteration: the complete
// delay-fault ATPG run (local generation, propagation, synchronization,
// fault simulation) over the whole fault universe with the paper's
// backtrack limits.
func BenchmarkTable3(b *testing.B) {
	for _, name := range table3Set {
		p := *bench.ProfileByName(name)
		c := p.Circuit()
		b.Run(name, func(b *testing.B) {
			var tested int
			for i := 0; i < b.N; i++ {
				sum := core.MustNew(c, core.Options{}).Run()
				tested = sum.Tested
			}
			b.ReportMetric(float64(tested), "tested")
			b.ReportMetric(float64(p.Paper.Tested), "paper-tested")
		})
	}
}

// BenchmarkTable3Parallel contrasts the sharded ATPG pipeline against the
// single-worker baseline on the Table 3 set: one full run per iteration
// at each worker count. The per-fault results are bit-identical at every
// count (see internal/core determinism tests); only wall-clock differs.
func BenchmarkTable3Parallel(b *testing.B) {
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, name := range table3Set {
					c := bench.ProfileByName(name).Circuit()
					core.MustNew(c, core.Options{Workers: workers}).Run()
				}
			}
		})
	}
}

// BenchmarkGenerate isolates the generation-phase search — local
// generation, propagation and synchronization with fault-simulation
// credit disabled, so every fault is targeted explicitly. This is the
// ~84% slice the word-parallel decision probes (DESIGN.md §12)
// accelerate; BenchmarkTable3 keeps measuring the full flow.
func BenchmarkGenerate(b *testing.B) {
	for _, name := range table3Set {
		c := bench.ProfileByName(name).Circuit()
		b.Run(name, func(b *testing.B) {
			var tested int
			for i := 0; i < b.N; i++ {
				tested = core.MustNew(c, core.Options{DisableFaultSim: true}).Run().Tested
			}
			b.ReportMetric(float64(tested), "tested")
		})
	}
}

// BenchmarkGenerateScalar is the reference-oracle row for
// BenchmarkGenerate: the same generation-phase run with the decision
// probes scored one sampled frame at a time. The results are
// bit-identical (TestBatchedSearchInvariance); the ratio of the two
// benchmarks is the word-parallel speedup reported in EXPERIMENTS.md.
func BenchmarkGenerateScalar(b *testing.B) {
	for _, name := range []string{"s298", "s386", "s641", "s1196"} {
		c := bench.ProfileByName(name).Circuit()
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.MustNew(c, core.Options{DisableFaultSim: true, ScalarSearch: true}).Run()
			}
		})
	}
}

// BenchmarkGoodMachineSim measures the finite state machine model of
// Figure 1: one full sequential frame (combinational block + state
// register update) of the largest benchmark.
func BenchmarkGoodMachineSim(b *testing.B) {
	c := bench.ProfileByName("s1238").Circuit()
	net := sim.NewNet(c)
	rng := rand.New(rand.NewSource(1))
	vec := make([]sim.V3, len(c.PIs))
	for i := range vec {
		vec[i] = sim.V3(rng.Intn(2))
	}
	state := make([]sim.V3, len(c.DFFs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vals := net.LoadFrame(vec, state)
		net.Eval3(vals, nil)
		state = net.NextState3(vals, nil)
	}
}

// BenchmarkTimeFrameSim measures the two-frame (slow V1 / fast V2) model
// of Figure 2: the eight-valued evaluation of one fast test cycle.
func BenchmarkTimeFrameSim(b *testing.B) {
	c := bench.ProfileByName("s1238").Circuit()
	net := sim.NewNet(c)
	rng := rand.New(rand.NewSource(2))
	bits := func(n int) []sim.V3 {
		out := make([]sim.V3, n)
		for i := range out {
			out[i] = sim.V3(rng.Intn(2))
		}
		return out
	}
	v1, v2, s0 := bits(len(c.PIs)), bits(len(c.PIs)), bits(len(c.DFFs))
	f1 := net.LoadFrame(v1, s0)
	net.Eval3(f1, nil)
	s1 := net.NextState3(f1, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vals := net.LoadFrame8(v1, v2, s0, s1)
		net.Eval8(logic.Robust, vals, nil)
	}
}

// BenchmarkTDgenLocal measures Figure 3, the local test generation flow:
// one TDgen run per fault over the circuit's fault universe.
func BenchmarkTDgenLocal(b *testing.B) {
	for _, name := range []string{"s27", "s298", "s1238"} {
		c := bench.ProfileByName(name).Circuit()
		net := sim.NewNet(c)
		meas := testability.Compute(c)
		all := faults.AllDelay(c)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f := all[i%len(all)]
				g := tdgen.New(net, f, meas, tdgen.Options{})
				g.Next()
			}
		})
	}
}

// BenchmarkFOGBUSTER measures Figure 4, the extended FOGBUSTER flow per
// fault: local generation plus propagation plus synchronization (fault
// simulation excluded to isolate the generation path).
func BenchmarkFOGBUSTER(b *testing.B) {
	for _, name := range []string{"s27", "s298", "s838"} {
		c := bench.ProfileByName(name).Circuit()
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.MustNew(c, core.Options{DisableFaultSim: true}).Run()
			}
		})
	}
}

// BenchmarkFOGBUSTERParallel is the sharded variant of BenchmarkFOGBUSTER:
// the generation path (fault simulation credit off) at one worker versus
// all CPUs.
func BenchmarkFOGBUSTERParallel(b *testing.B) {
	for _, name := range []string{"s27", "s298", "s838"} {
		c := bench.ProfileByName(name).Circuit()
		for _, workers := range []int{1, runtime.NumCPU()} {
			b.Run(fmt.Sprintf("%s/workers-%d", name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					core.MustNew(c, core.Options{DisableFaultSim: true, Workers: workers}).Run()
				}
			})
		}
	}
}

// BenchmarkOrderingPermutation measures the ordering heuristics
// themselves on the largest benchmark: the ADI row includes the random
// fault-simulation campaign over the full line universe (64-way
// batched), the others are pure sorts over static measures.
func BenchmarkOrderingPermutation(b *testing.B) {
	c := bench.ProfileByName("s1238").Circuit()
	all := faults.AllDelay(c)
	for _, h := range []order.Heuristic{order.Topological, order.SCOAP, order.ADI} {
		b.Run(string(h), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				order.Permutation(c, all, h, 0)
			}
		})
	}
}

// BenchmarkOrderingATPG contrasts the full flow under each fault
// order. The reported metrics are the explicit-target count and the
// total vector count: a good order front-loads simulation credit, so
// fewer faults are explicitly targeted and the test set shrinks.
func BenchmarkOrderingATPG(b *testing.B) {
	for _, name := range []string{"s298", "s386"} {
		c := bench.ProfileByName(name).Circuit()
		for _, h := range []order.Heuristic{order.Natural, order.Topological, order.SCOAP, order.ADI} {
			b.Run(name+"/"+h.Name(), func(b *testing.B) {
				var explicit, patterns int
				for i := 0; i < b.N; i++ {
					sum := core.MustNew(c, core.Options{Order: h}).Run()
					explicit, patterns = sum.Explicit, sum.Patterns
				}
				b.ReportMetric(float64(explicit), "explicit")
				b.ReportMetric(float64(patterns), "patterns")
			})
		}
	}
}

// BenchmarkCompactionATPG measures the full generate-then-compact
// pipeline (reverse-order drop plus overlap merge) and reports the
// vector counts on both sides of the compaction.
func BenchmarkCompactionATPG(b *testing.B) {
	for _, name := range []string{"s298", "s344", "s386"} {
		c := bench.ProfileByName(name).Circuit()
		b.Run(name, func(b *testing.B) {
			var before, after int
			for i := 0; i < b.N; i++ {
				sum := core.MustNew(c, core.Options{Compact: true}).Run()
				st := compact.Apply(c, sum, compact.Options{})
				before, after = st.PatternsBefore, st.PatternsAfter
			}
			b.ReportMetric(float64(before), "vectors-before")
			b.ReportMetric(float64(after), "vectors-after")
		})
	}
}

// BenchmarkCompactionApply isolates the compaction pass itself: the ATPG
// run happens once outside the timer and Apply works on a fresh summary
// each iteration.
func BenchmarkCompactionApply(b *testing.B) {
	c := bench.ProfileByName("s386").Circuit()
	b.Run("s386", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sum := core.MustNew(c, core.Options{Compact: true}).Run()
			b.StartTimer()
			compact.Apply(c, sum, compact.Options{})
		}
	})
}

// BenchmarkAblationNonRobust reproduces the paper's concluding claim: the
// non-robust model reduces the untestable count. The reported metrics are
// the untestable faults under each model.
func BenchmarkAblationNonRobust(b *testing.B) {
	for _, name := range []string{"s27", "s298", "s386"} {
		c := bench.ProfileByName(name).Circuit()
		b.Run(name, func(b *testing.B) {
			var rob, non int
			for i := 0; i < b.N; i++ {
				rob = core.MustNew(c, core.Options{}).Run().Untestable
				non = core.MustNew(c, core.Options{Algebra: logic.NonRobust}).Run().Untestable
			}
			b.ReportMetric(float64(rob), "untestable-robust")
			b.ReportMetric(float64(non), "untestable-nonrobust")
		})
	}
}

// BenchmarkAblationStrictInit contrasts the two initialization policies:
// assumed power-up (the paper's implied convention) versus provable
// synchronizing sequences from the all-X state. On s27 the strict policy
// collapses coverage because G7=0 is unreachable (see EXPERIMENTS.md).
func BenchmarkAblationStrictInit(b *testing.B) {
	for _, name := range []string{"s27", "s208"} {
		c := bench.ProfileByName(name).Circuit()
		b.Run(name, func(b *testing.B) {
			var assume, strict int
			for i := 0; i < b.N; i++ {
				assume = core.MustNew(c, core.Options{}).Run().Tested
				strict = core.MustNew(c, core.Options{StrictInit: true}).Run().Tested
			}
			b.ReportMetric(float64(assume), "tested-assumed")
			b.ReportMetric(float64(strict), "tested-strict")
		})
	}
}

// BenchmarkFaultSimCPT measures the paper's Section 5 fault simulation
// (critical path tracing plus exact confirmation) for one applied test.
func BenchmarkFaultSimCPT(b *testing.B) {
	c := bench.ProfileByName("s1196").Circuit()
	net := sim.NewNet(c)
	td := tdsim.New(net, logic.Robust)
	rng := rand.New(rand.NewSource(3))
	bits := func(n int) []sim.V3 {
		out := make([]sim.V3, n)
		for i := range out {
			out[i] = sim.V3(rng.Intn(2))
		}
		return out
	}
	v1, s0 := bits(len(c.PIs)), bits(len(c.DFFs))
	f1 := net.LoadFrame(v1, s0)
	net.Eval3(f1, nil)
	ff := &tdsim.FastFrame{
		V1: v1, V2: bits(len(c.PIs)), S0: s0, S1: net.NextState3(f1, nil),
		Prop: [][]sim.V3{bits(len(c.PIs)), bits(len(c.PIs))},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		td.Detect(ff, nil)
	}
}

// BenchmarkCreditSweep contrasts the credit-sweep execution paths: one
// full Detect pass (CPT candidate generation plus exact confirmation of
// every candidate, including the PPO-replay invalidation) for one
// applied test, along two axes. scalar/batched is the word-parallel axis
// (64 candidates per machine word, DESIGN.md §6); the -fulleval suffix
// is the evaluation-substrate axis (full levelized walks instead of the
// event-driven cone kernels, DESIGN.md §7). All four variants return
// bit-identical fault lists; only wall-clock differs.
func BenchmarkCreditSweep(b *testing.B) {
	for _, name := range []string{"s386", "s641", "s1196", "s1238"} {
		c := bench.ProfileByName(name).Circuit()
		net := sim.NewNet(c)
		td := tdsim.New(net, logic.Robust)
		netFull := sim.NewNet(c)
		tdFull := tdsim.New(netFull, logic.Robust)
		tdFull.SetFullEval(true)
		rng := rand.New(rand.NewSource(6))
		bits := func(n int) []sim.V3 {
			out := make([]sim.V3, n)
			for i := range out {
				out[i] = sim.V3(rng.Intn(2))
			}
			return out
		}
		v1, s0 := bits(len(c.PIs)), bits(len(c.DFFs))
		f1 := net.LoadFrame(v1, s0)
		net.Eval3(f1, nil)
		ff := &tdsim.FastFrame{
			V1: v1, V2: bits(len(c.PIs)), S0: s0, S1: net.NextState3(f1, nil),
			Prop: [][]sim.V3{bits(len(c.PIs)), bits(len(c.PIs)), bits(len(c.PIs))},
		}
		counts := map[string]int{}
		variants := []struct {
			label string
			sweep func() int
		}{
			{"scalar", func() int { return len(td.DetectScalar(ff, nil)) }},
			{"batched", func() int { return len(td.Detect(ff, nil)) }},
			{"scalar-fulleval", func() int { return len(tdFull.DetectScalar(ff, nil)) }},
			{"batched-fulleval", func() int { return len(tdFull.Detect(ff, nil)) }},
		}
		for _, v := range variants {
			v := v
			b.Run(name+"/"+v.label, func(b *testing.B) {
				n := 0
				for i := 0; i < b.N; i++ {
					n = v.sweep()
				}
				counts[v.label] = n
				b.ReportMetric(float64(n), "detected")
			})
		}
		// Only cross-check the variants a -bench filter actually ran.
		want := -1
		for _, v := range variants {
			n, ok := counts[v.label]
			if !ok {
				continue
			}
			if want == -1 {
				want = n
			} else if n != want {
				b.Fatalf("%s: variant %s detected %d, others %d", name, v.label, n, want)
			}
		}
	}
}

// BenchmarkConfirm isolates one exact scalar confirmation — the unit the
// credit sweep, the validator and the splice re-confirmation all pay per
// candidate. The event-driven path copies the good-machine values and
// re-evaluates only the fault cone; the full path re-evaluates the whole
// frame. The sampled fault rotates through the universe so both paths
// average over shallow and deep cones.
func BenchmarkConfirm(b *testing.B) {
	for _, name := range []string{"s641", "s1238"} {
		c := bench.ProfileByName(name).Circuit()
		all := faults.AllDelay(c)
		for _, mode := range []string{"event", "fulleval"} {
			net := sim.NewNet(c)
			td := tdsim.New(net, logic.Robust)
			td.SetFullEval(mode == "fulleval")
			rng := rand.New(rand.NewSource(7))
			bits := func(n int) []sim.V3 {
				out := make([]sim.V3, n)
				for i := range out {
					out[i] = sim.V3(rng.Intn(2))
				}
				return out
			}
			v1, s0 := bits(len(c.PIs)), bits(len(c.DFFs))
			f1 := net.LoadFrame(v1, s0)
			net.Eval3(f1, nil)
			ff := &tdsim.FastFrame{
				V1: v1, V2: bits(len(c.PIs)), S0: s0, S1: net.NextState3(f1, nil),
				Prop: [][]sim.V3{bits(len(c.PIs)), bits(len(c.PIs))},
			}
			vals := td.Values(ff)
			goodS2 := make([]sim.V3, len(c.DFFs))
			for i, ppo := range c.PPOs() {
				goodS2[i] = sim.V3(vals[ppo].Final())
			}
			b.Run(name+"/"+mode, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					td.Confirm(ff, vals, goodS2, all[i%len(all)])
				}
			})
		}
	}
}

// BenchmarkSynchronize measures SEMILET's reverse time processing: a full
// synchronizing sequence for the counter's cleared state.
func BenchmarkSynchronize(b *testing.B) {
	c := bench.ProfileByName("s420").Circuit()
	eng := semilet.NewEngine(sim.NewNet(c), semilet.Options{})
	target := make([]sim.V3, len(c.DFFs))
	for i := range target {
		target[i] = sim.Lo
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, st := eng.Synchronize(target, semilet.NewBudget(100)); st != semilet.Success {
			b.Fatal("synchronization failed")
		}
	}
}

// BenchmarkAblationTimedHandoff measures the paper's future-work
// extension (arrival/stabilization time analysis): untestable counts as
// the variation budget tightens from the robust extreme toward the
// non-robust limit of the state handoff.
func BenchmarkAblationTimedHandoff(b *testing.B) {
	c := bench.ProfileByName("s298").Circuit()
	b.Run("s298", func(b *testing.B) {
		var rob, timed int
		for i := 0; i < b.N; i++ {
			rob = core.MustNew(c, core.Options{}).Run().Untestable
			timed = core.MustNew(c, core.Options{VariationBudget: 1}).Run().Untestable
		}
		b.ReportMetric(float64(rob), "untestable-robust")
		b.ReportMetric(float64(timed), "untestable-timed")
	})
}

// BenchmarkScaleOut measures the full flow at 16 workers: a budgeted run
// on the industrial s15850-class profile and the whole universe of the
// explicit-generation-heavy s1196. The "stock" leaf names are the ones
// .github/bench-baseline.json gates on.
func BenchmarkScaleOut(b *testing.B) {
	for _, tc := range []struct {
		name, circuit string
		maxTargets    int
	}{
		{"s15850-mt32", "s15850", 32},
		{"s1196", "s1196", 0},
	} {
		b.Run(tc.name, func(b *testing.B) {
			c := bench.ProfileByName(tc.circuit).Circuit()
			opts := core.Options{Workers: 16, MaxTargets: tc.maxTargets}
			b.Run("stock", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					core.MustNew(c, opts).Run()
				}
			})
		})
	}
}
