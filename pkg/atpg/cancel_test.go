package atpg

import (
	"context"
	"testing"
	"time"

	"fogbuster/internal/core"
)

// coherent fails the test unless the partial result's books balance:
// every fault is accounted for exactly once and the aggregate counters
// match the per-fault statuses.
func coherent(t *testing.T, res *Result) {
	t.Helper()
	counts := map[Status]int{}
	for _, fr := range res.Faults {
		counts[fr.Status]++
		if (fr.Status == StatusTested) != (fr.Seq != nil) {
			t.Fatalf("%s: status %s with seq=%v", fr.Fault, fr.Status, fr.Seq != nil)
		}
	}
	if res.Explicit != counts[StatusTested] ||
		res.Tested != counts[StatusTested]+counts[StatusTestedBySim] ||
		res.Untestable != counts[StatusUntestable] ||
		res.Aborted != counts[StatusAborted] ||
		res.Pending != counts[StatusPending] {
		t.Fatalf("counters disagree with statuses: %+v vs tested=%d explicit=%d untestable=%d aborted=%d pending=%d",
			counts, res.Tested, res.Explicit, res.Untestable, res.Aborted, res.Pending)
	}
	if res.Classified()+res.Pending != len(res.Faults) {
		t.Fatalf("classified %d + pending %d != %d faults", res.Classified(), res.Pending, len(res.Faults))
	}
}

// TestRunPreCancelled: a context cancelled before Run returns
// immediately with the fully-pending partial result and Err == ctx.Err().
func TestRunPreCancelled(t *testing.T) {
	c, err := Benchmark("s298")
	if err != nil {
		t.Fatal(err)
	}
	ses, err := New(c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, err := ses.Run(ctx)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("pre-cancelled Run took %v", elapsed)
	}
	if err != context.Canceled || res == nil || res.Err != context.Canceled {
		t.Fatalf("Run = (%v, %v), want partial result with context.Canceled", res, err)
	}
	coherent(t, res)
	if res.Pending != len(res.Faults) {
		t.Fatalf("pre-cancelled run classified %d faults", res.Classified())
	}
}

// TestCancellationBoundedAndCoherent: cancelling mid-run on the largest
// benchmark returns within a bounded time with a coherent partial
// summary whose Err is the context error.
func TestCancellationBoundedAndCoherent(t *testing.T) {
	c, err := Benchmark("s1238")
	if err != nil {
		t.Fatal(err)
	}
	ses, err := New(c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := ses.Run(ctx)
	elapsed := time.Since(start)
	// The promptness bound is one in-flight search alternative plus one
	// credit sweep per worker; 30s is orders of magnitude above both.
	if elapsed > 30*time.Second {
		t.Fatalf("cancelled Run took %v", elapsed)
	}
	if err != context.DeadlineExceeded {
		t.Fatalf("Run error = %v, want context.DeadlineExceeded", err)
	}
	if res == nil || res.Err != context.DeadlineExceeded {
		t.Fatalf("partial result missing the context error: %+v", res)
	}
	coherent(t, res)
	if res.Pending == 0 {
		t.Fatal("50ms deadline on s1238 classified the complete universe — cancellation untested")
	}
}

// TestCancelledPrefixMatchesFullRun pins the partial-determinism
// contract: every fault a cancelled run classified has exactly the
// status the uncancelled run assigns, because the merge loop commits the
// same deterministic chronology and cancellation only truncates it.
func TestCancelledPrefixMatchesFullRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full s641 reference run in -short mode")
	}
	c, err := Benchmark("s641")
	if err != nil {
		t.Fatal(err)
	}
	full := mustRunTest(t, c, Config{})

	for _, timeout := range []time.Duration{20 * time.Millisecond, 200 * time.Millisecond} {
		ses, err := New(c, Config{})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		partial, runErr := ses.Run(ctx)
		cancel()
		if runErr == nil {
			// The machine finished inside the deadline; the prefix check
			// degenerates to full equality below.
			t.Logf("run completed within %v", timeout)
		}
		coherent(t, partial)
		for i, fr := range partial.Faults {
			if fr.Status == StatusPending {
				continue
			}
			if want := full.Faults[i]; fr.Status != want.Status {
				t.Fatalf("timeout %v: %s = %s, full run says %s", timeout, fr.Fault, fr.Status, want.Status)
			}
		}
	}
}

// mustRunTest executes one complete session.
func mustRunTest(t *testing.T, c *Circuit, cfg Config) *Result {
	t.Helper()
	return mustRunPatched(t, c, cfg, nil)
}

// mustRunPatched is mustRunTest with the engine options edited by patch:
// the test-only route to the reference oracles on core.Options.
func mustRunPatched(t *testing.T, c *Circuit, cfg Config, patch func(*core.Options)) *Result {
	t.Helper()
	ses, err := newSession(c, cfg, nil, patch)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ses.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}
