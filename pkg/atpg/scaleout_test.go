package atpg

import (
	"strings"
	"testing"
)

// TestScaleOutFacadeInvariance pins the scheduling contract through the
// public API: the canonical Result JSON at workers 1, 4 and 16 is
// byte-identical to the serial run. Claim scheduling is invisible in the
// wire format consumers read.
func TestScaleOutFacadeInvariance(t *testing.T) {
	c := mustBenchmark(t, "s298")
	base := canonicalBytes(t, mustRunTest(t, c, Config{Workers: -1}))
	workerCounts := []int{1, 4, 16}
	if testing.Short() {
		// The race job runs with -short: keep the 16-worker stress,
		// trim the sweep.
		workerCounts = []int{16}
	}
	for _, workers := range workerCounts {
		if got := canonicalBytes(t, mustRunTest(t, c, Config{Workers: workers})); got != base {
			t.Errorf("workers=%d: canonical JSON diverged from the serial run", workers)
		}
	}
}

// TestMaxTargetsFacade pins the budgeted-run surface: Config.MaxTargets
// leaves faults pending and the canonical JSON of the budgeted run is
// worker-count invariant.
func TestMaxTargetsFacade(t *testing.T) {
	c := mustBenchmark(t, "s298")
	k := c.Faults() / 4
	base := mustRunTest(t, c, Config{Workers: -1, MaxTargets: k})
	if base.Pending == 0 {
		t.Fatalf("MaxTargets=%d of %d faults left nothing pending", k, c.Faults())
	}
	if base.Err != nil {
		t.Fatalf("budgeted run reported error %v; a budget is not a cancellation", base.Err)
	}
	want := canonicalBytes(t, base)
	for _, workers := range []int{4, 16} {
		got := canonicalBytes(t, mustRunTest(t, c, Config{Workers: workers, MaxTargets: k}))
		if got != want {
			t.Errorf("workers=%d: budgeted canonical JSON diverged from the serial budgeted run", workers)
		}
	}
}

// TestScaleOutConfigValidation pins the budget's error path: a negative
// budget is a construction error, never a silent fallback.
func TestScaleOutConfigValidation(t *testing.T) {
	c := mustBenchmark(t, "s27")
	if _, err := New(c, Config{MaxTargets: -1}); err == nil || !strings.Contains(err.Error(), "max_targets") {
		t.Errorf("MaxTargets=-1: err = %v, want a max_targets error", err)
	}
}

// TestLargeBenchmarkSurface pins the industrial-scale circuit surface:
// the large set resolves through Benchmark, stays out of Benchmarks()
// (the Table 3 experiment set) and matches its calibrated fault
// universe.
func TestLargeBenchmarkSurface(t *testing.T) {
	large := LargeBenchmarks()
	if len(large) != 2 || large[0].Name != "s15850" || large[1].Name != "s38584" {
		t.Fatalf("LargeBenchmarks() = %+v", large)
	}
	for _, b := range Benchmarks() {
		if b.Name == "s15850" || b.Name == "s38584" {
			t.Errorf("Benchmarks() leaked large circuit %s into the Table 3 set", b.Name)
		}
	}
	c := mustBenchmark(t, "s15850")
	if got, want := c.Faults(), 2*15850; got != want {
		t.Errorf("s15850 faults = %d, want %d", got, want)
	}
}

// TestProgressCountersSurface pins the progress plumbing at 16 workers:
// every targeting position reaches the stream and the final progress
// event reports the whole universe committed.
func TestProgressCountersSurface(t *testing.T) {
	c := mustBenchmark(t, "s27")
	ses, err := New(c, Config{Workers: 16})
	if err != nil {
		t.Fatal(err)
	}
	var last Event
	progress := 0
	ses.OnEvent(func(ev Event) {
		if ev.Kind == EventProgress {
			progress++
			last = ev
		}
	})
	if _, err := ses.Run(t.Context()); err != nil {
		t.Fatal(err)
	}
	if last.Done != last.Total || last.Total != c.Faults() || progress != c.Faults() {
		t.Fatalf("final progress %d/%d after %d events, want %d/%d", last.Done, last.Total, progress, c.Faults(), c.Faults())
	}
}
