package core

import (
	"fmt"
	"runtime"
	"testing"

	"fogbuster/internal/bench"
	"fogbuster/internal/order"
)

// summarize flattens the determinism-relevant part of a Summary: the
// per-fault status and per-fault pattern cost (the sequence length for
// explicit tests, 0 otherwise), plus the aggregate counters and the
// generation order.
func summarize(s *Summary) string {
	out := fmt.Sprintf("order=%s tested=%d explicit=%d untestable=%d aborted=%d patterns=%d valfail=%d seqorder=%v\n",
		s.Order, s.Tested, s.Explicit, s.Untestable, s.Aborted, s.Patterns, s.ValidationFailures, s.SeqOrder)
	for _, r := range s.Results {
		n := 0
		if r.Seq != nil {
			n = r.Seq.Len()
		}
		out += fmt.Sprintf("%v %s %d\n", r.Fault, r.Status, n)
	}
	return out
}

// TestSeedDeterminism pins the reproducibility contract: the same
// Options.Seed yields an identical Summary across two independent runs.
func TestSeedDeterminism(t *testing.T) {
	for _, name := range []string{"s27", "s298", "s386"} {
		c := bench.ProfileByName(name).Circuit()
		a := MustNew(c, Options{Seed: 42}).Run()
		b := MustNew(c, Options{Seed: 42}).Run()
		if sa, sb := summarize(a), summarize(b); sa != sb {
			t.Errorf("%s: two runs with the same seed disagree:\n--- run 1\n%s--- run 2\n%s", name, sa, sb)
		}
	}
}

// TestWorkerCountInvariance pins the sharding contract: per-fault
// statuses and pattern counts are bit-identical regardless of the worker
// count, because every fault's X-fill stream is derived from the seed and
// the fault index and the merge loop commits in fault order.
func TestWorkerCountInvariance(t *testing.T) {
	for _, name := range []string{"s27", "s298", "s386"} {
		c := bench.ProfileByName(name).Circuit()
		base := summarize(MustNew(c, Options{Workers: 1}).Run())
		for _, workers := range []int{2, 7, 64} {
			got := summarize(MustNew(c, Options{Workers: workers}).Run())
			if got != base {
				t.Errorf("%s: Workers=%d diverged from Workers=1:\n--- serial\n%s--- workers=%d\n%s",
					name, workers, base, workers, got)
			}
		}
	}
}

// TestOrderingWorkerInvariance extends the contract to every fault
// ordering: for a fixed heuristic the Summary stays bit-identical from
// one worker to NumCPU, because the permutation is a pure function of
// (circuit, heuristic, seed), the merge loop commits in permutation
// order, and X-fill streams stay keyed to canonical fault indices.
func TestOrderingWorkerInvariance(t *testing.T) {
	for _, name := range []string{"s27", "s298"} {
		c := bench.ProfileByName(name).Circuit()
		for _, h := range []order.Heuristic{order.Topological, order.SCOAP, order.ADI} {
			base := summarize(MustNew(c, Options{Workers: 1, Order: h}).Run())
			for _, workers := range []int{4, runtime.NumCPU()} {
				got := summarize(MustNew(c, Options{Workers: workers, Order: h}).Run())
				if got != base {
					t.Errorf("%s/%s: Workers=%d diverged:\n--- serial\n%s--- workers=%d\n%s",
						name, h, workers, base, workers, got)
				}
			}
		}
	}
}

// TestBatchedCreditInvariance pins the word-parallel credit sweep into
// the determinism contract: the batched path (the default) must produce
// a Summary bit-identical to the scalar reference path
// (Options.ScalarCredit) at every worker count, so batching — like
// sharding — is purely an execution detail.
func TestBatchedCreditInvariance(t *testing.T) {
	for _, name := range []string{"s27", "s298", "s386"} {
		c := bench.ProfileByName(name).Circuit()
		ref := summarize(MustNew(c, Options{ScalarCredit: true, Workers: 1}).Run())
		for _, workers := range []int{1, 4} {
			got := summarize(MustNew(c, Options{Workers: workers}).Run())
			if got != ref {
				t.Errorf("%s: batched credit (Workers=%d) diverged from the scalar reference:\n--- scalar\n%s--- batched\n%s",
					name, workers, ref, got)
			}
		}
		// Compact drops the skip filter and records full detection sets;
		// the equivalence must hold there too, Detects included.
		refC := MustNew(c, Options{ScalarCredit: true, Workers: 1, Compact: true}).Run()
		gotC := MustNew(c, Options{Compact: true}).Run()
		if a, b := summarize(refC), summarize(gotC); a != b {
			t.Errorf("%s: batched credit diverged under Compact:\n--- scalar\n%s--- batched\n%s", name, a, b)
			continue
		}
		for i := range refC.Results {
			ra, rb := refC.Results[i].Seq, gotC.Results[i].Seq
			if (ra == nil) != (rb == nil) {
				t.Fatalf("%s: sequence presence differs at fault %d", name, i)
			}
			if ra == nil {
				continue
			}
			if len(ra.Detects) != len(rb.Detects) {
				t.Errorf("%s fault %d: scalar recorded %d detections, batched %d",
					name, i, len(ra.Detects), len(rb.Detects))
				continue
			}
			for j := range ra.Detects {
				if ra.Detects[j] != rb.Detects[j] {
					t.Errorf("%s fault %d: detection %d differs: scalar %v, batched %v",
						name, i, j, ra.Detects[j], rb.Detects[j])
					break
				}
			}
		}
	}
}

// TestEventDrivenInvariance pins the selective-trace substrate into the
// determinism contract: the event-driven kernels (the default) must
// produce a Summary bit-identical to the full-eval reference
// (Options.FullEval) at every worker count — Detects included, because
// Compact drops the credit skip filter and records the complete
// detection sets the compactor replays.
func TestEventDrivenInvariance(t *testing.T) {
	for _, name := range []string{"s27", "s298", "s386"} {
		c := bench.ProfileByName(name).Circuit()
		ref := MustNew(c, Options{FullEval: true, Workers: 1, Compact: true}).Run()
		refS := summarize(ref)
		for _, workers := range []int{1, 4} {
			got := MustNew(c, Options{Workers: workers, Compact: true}).Run()
			if gotS := summarize(got); gotS != refS {
				t.Errorf("%s: event-driven (Workers=%d) diverged from full-eval:\n--- full\n%s--- event\n%s",
					name, workers, refS, gotS)
				continue
			}
			for i := range ref.Results {
				ra, rb := ref.Results[i].Seq, got.Results[i].Seq
				if (ra == nil) != (rb == nil) {
					t.Fatalf("%s: sequence presence differs at fault %d", name, i)
				}
				if ra == nil {
					continue
				}
				if len(ra.Detects) != len(rb.Detects) {
					t.Errorf("%s fault %d: full-eval recorded %d detections, event %d",
						name, i, len(ra.Detects), len(rb.Detects))
					continue
				}
				for j := range ra.Detects {
					if ra.Detects[j] != rb.Detects[j] {
						t.Errorf("%s fault %d: detection %d differs: full %v, event %v",
							name, i, j, ra.Detects[j], rb.Detects[j])
						break
					}
				}
			}
		}
	}
}

// TestNewRejectsUnknownOrder pins the fail-fast contract: a
// misspelled heuristic must not silently run the natural order under
// the wrong label — New reports it as a construction error (no panic;
// pkg/atpg surfaces it to API consumers).
func TestNewRejectsUnknownOrder(t *testing.T) {
	if _, err := New(bench.NewS27(), Options{Order: "bogus"}); err == nil {
		t.Fatal("New accepted an unknown ordering heuristic")
	}
}

// TestNewRejectsNegativeBudgets pins the other construction errors: a
// negative budget or depth is always a caller bug (zero already means
// "default") and must never be silently reinterpreted.
func TestNewRejectsNegativeBudgets(t *testing.T) {
	c := bench.NewS27()
	for name, opts := range map[string]Options{
		"LocalBacktracks": {LocalBacktracks: -1},
		"SeqBacktracks":   {SeqBacktracks: -5},
		"MaxFrames":       {MaxFrames: -2},
		"VariationBudget": {VariationBudget: -3},
	} {
		if _, err := New(c, opts); err == nil {
			t.Errorf("New accepted negative %s", name)
		}
	}
}

// TestOrderingClassifiesEverything checks that a reordered run still
// classifies the complete universe and never invents validation
// failures: ordering moves the credit chronology, not the search.
func TestOrderingClassifiesEverything(t *testing.T) {
	c := bench.ProfileByName("s298").Circuit()
	total := len(bench.ProfileByName("s298").Circuit().Lines()) * 2
	for _, h := range []order.Heuristic{order.Natural, order.Topological, order.SCOAP, order.ADI} {
		sum := MustNew(c, Options{Order: h}).Run()
		if n := sum.Tested + sum.Untestable + sum.Aborted; n != total {
			t.Errorf("%s: classified %d of %d faults", h, n, total)
		}
		if sum.ValidationFailures != 0 {
			t.Errorf("%s: %d validation failures", h, sum.ValidationFailures)
		}
		if sum.Order != h.Name() {
			t.Errorf("Summary.Order = %q, want %q", sum.Order, h.Name())
		}
	}
}

// TestBatchedSearchInvariance pins the generation-phase batching into
// the determinism contract: the lane-parallel decision probes (the
// default) must produce a Summary bit-identical to the scalar reference
// path (Options.ScalarSearch) — which scores the identical probe frames
// one at a time — at every worker count. Like ScalarCredit, the knob
// must be purely an execution detail.
func TestBatchedSearchInvariance(t *testing.T) {
	for _, name := range []string{"s27", "s298", "s386"} {
		c := bench.ProfileByName(name).Circuit()
		ref := summarize(MustNew(c, Options{ScalarSearch: true, Workers: 1}).Run())
		for _, workers := range []int{1, 4, 16} {
			if got := summarize(MustNew(c, Options{Workers: workers}).Run()); got != ref {
				t.Errorf("%s: batched search (Workers=%d) diverged from the scalar reference:\n--- scalar\n%s--- batched\n%s",
					name, workers, ref, got)
			}
		}
		if got := summarize(MustNew(c, Options{ScalarSearch: true, Workers: 16}).Run()); got != ref {
			t.Errorf("%s: scalar search itself is worker-count dependent", name)
		}
	}
}
