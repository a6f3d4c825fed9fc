package core

import (
	"testing"

	"fogbuster/internal/bench"
)

// TestBroadcastStealInvariance pins that claim scheduling never reaches
// the Summary: at 1, 4 and 16 workers, with claims interleaving
// arbitrarily around the commit cursor, every run reproduces the serial
// Summary bit for bit. Only Runtime may differ, and summarize() excludes
// it. (Broadcast and steal name the two alternative schedulers this
// suite compared against the claim counter until they were removed.)
func TestBroadcastStealInvariance(t *testing.T) {
	circuits := []string{"s27", "s298", "s386"}
	workerCounts := []int{1, 4, 16}
	if testing.Short() {
		// The race job runs with -short: keep the 16-worker stress on a
		// non-trivial circuit, trim the sweep.
		circuits = []string{"s27", "s298"}
		workerCounts = []int{4, 16}
	}
	for _, name := range circuits {
		c := bench.ProfileByName(name).Circuit()
		base := summarize(MustNew(c, Options{Workers: 1}).Run())
		for _, workers := range workerCounts {
			if got := summarize(MustNew(c, Options{Workers: workers}).Run()); got != base {
				t.Errorf("%s: Workers=%d diverged from the serial run:\n--- serial\n%s--- got\n%s",
					name, workers, base, got)
			}
		}
	}
}

// TestBroadcastStealOrderingInvariance extends the contract to a
// non-trivial targeting permutation: under the ADI ordering the 4- and
// 16-worker runs still reproduce the serial Summary bit for bit.
func TestBroadcastStealOrderingInvariance(t *testing.T) {
	c := bench.ProfileByName("s298").Circuit()
	base := summarize(MustNew(c, Options{Workers: 1, Order: "adi"}).Run())
	for _, workers := range []int{4, 16} {
		got := summarize(MustNew(c, Options{Workers: workers, Order: "adi"}).Run())
		if got != base {
			t.Errorf("adi: Workers=%d diverged from the serial run", workers)
		}
	}
}

// TestMaxTargetsPrefix pins the budgeted-run semantics: MaxTargets=K
// processes exactly the first K positions of the targeting permutation,
// their outcomes bit-identical to the full run's (a budget is a
// deterministic cancellation), every later fault Pending unless an
// in-budget sequence credited it, and the whole budgeted Summary
// invariant across worker counts.
func TestMaxTargetsPrefix(t *testing.T) {
	c := bench.ProfileByName("s298").Circuit()
	full := MustNew(c, Options{Workers: 1}).Run()
	n := len(full.Results)
	k := n / 3

	budget := MustNew(c, Options{Workers: 1, MaxTargets: k}).Run()
	// Positions 0..k-1 (natural order: fault indices 0..k-1) must match
	// the full run exactly; beyond the budget only Pending and
	// TestedBySim may appear.
	pending := 0
	for i, r := range budget.Results {
		if i < k {
			if r.Status != full.Results[i].Status {
				t.Errorf("fault %d (in budget): status %v, full run says %v", i, r.Status, full.Results[i].Status)
			}
			continue
		}
		switch r.Status {
		case Pending:
			pending++
		case TestedBySim:
		default:
			t.Errorf("fault %d (beyond budget): status %v", i, r.Status)
		}
	}
	if pending == 0 {
		t.Fatalf("MaxTargets=%d of %d left no fault pending; budget not exercised", k, n)
	}
	if len(budget.SeqOrder) == 0 {
		t.Fatal("budgeted run generated no sequences")
	}

	base := summarize(budget)
	for _, workers := range []int{4, 16} {
		got := summarize(MustNew(c, Options{Workers: workers, MaxTargets: k}).Run())
		if got != base {
			t.Errorf("MaxTargets=%d: Workers=%d diverged from serial budgeted run", k, workers)
		}
	}
}
