package atpg

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"fogbuster/internal/core"
)

// readBenchS27 loads the distribution-format s27 through the ReadBench
// path, so the invariance below also covers file-parsed circuits.
func readBenchS27(t *testing.T) *Circuit {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "s27.bench"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c, err := ReadBench("s27", f)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// scalarSearch selects the scalar search oracle (core.Options.ScalarSearch)
// when on, the batched default otherwise.
func scalarSearch(on bool) func(*core.Options) {
	return func(o *core.Options) { o.ScalarSearch = on }
}

// TestBatchedSearchFacadeInvariance restates the generation-phase
// batching contract over the wire format consumers read: the canonical
// JSON of a Result is byte-identical between the batched default and the
// scalar search oracle at 1, 4 and 16 workers — on a built-in circuit
// and on the ReadBench path.
func TestBatchedSearchFacadeInvariance(t *testing.T) {
	circuits := []struct {
		name string
		c    *Circuit
	}{
		{"s208", mustBenchmark(t, "s208")},
		{"s27-file", readBenchS27(t)},
	}
	for _, tc := range circuits {
		base := ""
		for _, workers := range []int{1, 4, 16} {
			for _, scalar := range []bool{false, true} {
				res := mustRunPatched(t, tc.c, Config{Workers: workers, Seed: 5}, scalarSearch(scalar))
				got := canonicalBytes(t, res)
				if base == "" {
					base = got
				} else if got != base {
					t.Errorf("%s: Workers=%d ScalarSearch=%v diverged from the baseline run",
						tc.name, workers, scalar)
				}
			}
		}
	}
}

// TestBatchedSearchCancelInvariance is the cancel-mid-search variant:
// cancelling as soon as the first progress commits must leave a
// coherent partial result whose classified prefix matches the full run
// fault for fault — in both search modes, so an interrupted batched
// search can never commit anything its scalar twin would not.
func TestBatchedSearchCancelInvariance(t *testing.T) {
	c := mustBenchmark(t, "s641")
	full := mustRunTest(t, c, Config{Workers: 2})
	for _, scalar := range []bool{false, true} {
		ses, err := newSession(c, Config{Workers: 2}, nil, scalarSearch(scalar))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var once sync.Once
		ses.OnEvent(func(Event) { once.Do(cancel) })
		res, err := ses.Run(ctx)
		cancel()
		if err != nil && err != context.Canceled {
			t.Fatalf("ScalarSearch=%v: Run returned %v", scalar, err)
		}
		if res == nil {
			t.Fatalf("ScalarSearch=%v: no partial result", scalar)
		}
		coherent(t, res)
		for i, fr := range res.Faults {
			if fr.Status == StatusPending {
				continue
			}
			if want := full.Faults[i].Status; fr.Status != want {
				t.Fatalf("ScalarSearch=%v: %s committed as %s, full run says %s",
					scalar, fr.Fault, fr.Status, want)
			}
		}
	}
}
