package atpg

import (
	"context"
	"testing"
)

// TestCheckpointBeforeRun takes Session.Checkpoint before Run on a fresh
// session, on a shard and on a resumed session. Each snapshot sits at
// the low end of its window (0, the shard's Lo, the resumed cursor), a
// resumed session's snapshot carries the stitched prefix it continues,
// and resuming from any of them reproduces the uninterrupted run.
func TestCheckpointBeforeRun(t *testing.T) {
	cfg := Config{Seed: 42}
	shardCfg := cfg
	shardCfg.Shards, shardCfg.ShardIndex = 2, 1
	c := mustBenchmark(t, "s27")
	direct := canonicalBytes(t, mustRunTest(t, c, cfg))
	shard := mustRunTest(t, c, shardCfg)

	ses, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	runCancelled(t, ses, 9)
	mid, err := ses.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if mid.Cursor != 9 {
		// A done context stops the merge loop before its next commit.
		t.Fatalf("run cancelled at the 9th progress event stopped at cursor %d", mid.Cursor)
	}
	prefix := *mid.Result
	prefix.Err = nil // a live snapshot carries no run error

	for _, tc := range []struct {
		name   string
		open   func() (*Session, error)
		cursor int
		want   string
	}{
		{"fresh", func() (*Session, error) { return New(c, cfg) }, 0, direct},
		{"shard", func() (*Session, error) { return New(c, shardCfg) }, shard.Shard.Lo, canonicalBytes(t, shard)},
		{"resumed", func() (*Session, error) { return Resume(c, mid) }, mid.Cursor, direct},
	} {
		s, err := tc.open()
		if err != nil {
			t.Fatal(err)
		}
		ck, err := s.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if ck.Cursor != tc.cursor || ck.Result.Cursor != tc.cursor {
			t.Fatalf("%s: checkpoint cursor %d (result %d), want %d", tc.name, ck.Cursor, ck.Result.Cursor, tc.cursor)
		}
		coherent(t, ck.Result)
		switch {
		case tc.name == "resumed" && canonicalBytes(t, ck.Result) != canonicalBytes(t, &prefix):
			t.Fatal("resumed: the checkpoint is not the stitched prefix the session continues")
		case tc.name != "resumed" && ck.Result.Classified() != 0:
			t.Fatalf("%s: %d faults classified before Run", tc.name, ck.Result.Classified())
		case tc.name == "shard" && (ck.Result.Shard == nil || len(ck.Result.Shard.Positions) != 0):
			t.Fatalf("shard: checkpoint window %+v, want an empty committed prefix", ck.Result.Shard)
		}
		again, err := Resume(c, ck)
		if err != nil {
			t.Fatal(err)
		}
		res, err := again.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if canonicalBytes(t, res) != tc.want {
			t.Errorf("%s: resume from the pre-Run checkpoint diverged from the uninterrupted run", tc.name)
		}
	}
}

// TestCheckpointConcurrentWithRun snapshots a two-worker s298 run in a
// loop while Run executes on another goroutine: cursors never decrease,
// every snapshot's counters match its statuses, and resuming from the
// last mid-run snapshot reproduces the uninterrupted run.
func TestCheckpointConcurrentWithRun(t *testing.T) {
	cfg := Config{Seed: 42, Workers: 2}
	c := mustBenchmark(t, "s298")
	direct := canonicalBytes(t, mustRunTest(t, c, cfg))

	ses, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ran := make(chan error, 1)
	go func() {
		_, err := ses.Run(context.Background())
		ran <- err
	}()
	var last *Checkpoint
	prev, snaps := 0, 0
	for running := true; running; snaps++ {
		select {
		case err := <-ran:
			if err != nil {
				t.Fatal(err)
			}
			running = false // one more snapshot, of the final Result
		default:
		}
		ck, err := ses.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if ck.Cursor < prev {
			t.Fatalf("snapshot %d: cursor fell from %d to %d", snaps, prev, ck.Cursor)
		}
		prev = ck.Cursor
		coherent(t, ck.Result)
		patterns := 0
		for _, fr := range ck.Result.Faults {
			if fr.Seq != nil {
				patterns += fr.Seq.Len()
			}
		}
		if ck.Result.Patterns != patterns {
			t.Fatalf("snapshot %d: %d patterns counted, sequences hold %d", snaps, ck.Result.Patterns, patterns)
		}
		if ck.Cursor > 0 && ck.Cursor < c.Faults() {
			last = ck
		}
	}
	if last == nil {
		t.Fatalf("none of %d snapshots caught the run mid-flight", snaps)
	}
	t.Logf("%d snapshots; resuming from cursor %d of %d", snaps, last.Cursor, c.Faults())
	ses2, err := Resume(c, last)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ses2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if canonicalBytes(t, res) != direct {
		t.Errorf("resume from the mid-run snapshot at cursor %d diverged from the uninterrupted run", last.Cursor)
	}
}
