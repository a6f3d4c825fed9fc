package atpg

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestReadBench drives the io.Reader constructor with the real
// ISCAS'89 s27 distribution file in testdata — header comments, blank
// lines, alignment spaces and all — and requires the parsed circuit to
// be content-identical to the embedded benchmark: same hash, and a full
// Session.Run byte-identical to the built-in circuit's. Malformed input
// must still error.
func TestReadBench(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "s27.bench"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c, err := ReadBench("s27", f)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "s27" {
		t.Fatalf("name = %q, want s27", c.Name())
	}
	if c.Faults() != 50 {
		t.Fatalf("s27 has %d delay faults, want 50", c.Faults())
	}
	builtin, err := Benchmark("s27")
	if err != nil {
		t.Fatal(err)
	}
	if c.ContentHash() != builtin.ContentHash() {
		t.Fatal("distribution-format s27 hashes differently from the embedded benchmark")
	}
	cfg := Config{Seed: 42}
	if got, want := canonicalBytes(t, mustRunTest(t, c, cfg)), canonicalBytes(t, mustRunTest(t, builtin, cfg)); got != want {
		t.Fatal("run over the testdata circuit diverged from the embedded benchmark")
	}
	if _, err := ReadBench("bad", strings.NewReader("C = FROB(A)\n")); err == nil {
		t.Fatal("malformed netlist accepted")
	}
	if _, err := ReadBench("empty", strings.NewReader("# nothing\n")); err == nil {
		t.Fatal("empty netlist accepted")
	}
}

// TestContentHashNormalizesSyntax: comments, whitespace and line order
// wash out of the content hash; a different structure or name changes
// it.
func TestContentHashNormalizesSyntax(t *testing.T) {
	a, err := ParseBench("h", "INPUT(A)\nINPUT(B)\nOUTPUT(C)\nC = AND(A, B)\n")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseBench("h", "# a comment\nINPUT(A)\n\nINPUT(B)\nOUTPUT(C)\n  C = and( A , B )\n")
	if err != nil {
		t.Fatal(err)
	}
	if a.ContentHash() != b.ContentHash() {
		t.Fatalf("syntactic variation changed the hash:\n%s\n%s", a.ContentHash(), b.ContentHash())
	}
	or, err := ParseBench("h", "INPUT(A)\nINPUT(B)\nOUTPUT(C)\nC = OR(A, B)\n")
	if err != nil {
		t.Fatal(err)
	}
	if a.ContentHash() == or.ContentHash() {
		t.Fatal("different structure, same hash")
	}
	named, err := ParseBench("other", "INPUT(A)\nINPUT(B)\nOUTPUT(C)\nC = AND(A, B)\n")
	if err != nil {
		t.Fatal(err)
	}
	if a.ContentHash() == named.ContentHash() {
		t.Fatal("different name, same hash (results embed the name, so hashes must too)")
	}
	if len(a.ContentHash()) != 64 {
		t.Fatalf("hash %q is not hex SHA-256", a.ContentHash())
	}
	// The canonical text round-trips.
	rt, err := ParseBench("h", a.Bench())
	if err != nil {
		t.Fatal(err)
	}
	if rt.ContentHash() != a.ContentHash() {
		t.Fatal("canonical Bench text does not round-trip to the same hash")
	}
}

// TestTopologySharedAcrossSessions pins the levelize-once contract: any
// number of sessions over one Circuit build exactly one topology, and
// the results stay bit-identical to a fresh circuit's.
func TestTopologySharedAcrossSessions(t *testing.T) {
	c, err := Benchmark("s27")
	if err != nil {
		t.Fatal(err)
	}
	var results []*Result
	for i := 0; i < 3; i++ {
		results = append(results, mustRunTest(t, c, Config{}))
	}
	c.mu.Lock()
	builds := c.topoBuilds
	c.mu.Unlock()
	if builds != 1 {
		t.Fatalf("3 sessions built %d topologies, want 1", builds)
	}
	fresh, err := Benchmark("s27")
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalBytes(t, mustRunTest(t, fresh, Config{}))
	for i, r := range results {
		if got := canonicalBytes(t, r); got != want {
			t.Fatalf("session %d over the shared topology diverged from a fresh circuit", i)
		}
	}
}

// TestConfigCanonical: aliases and zero defaults normalize, invalid
// configs error, and canonicalization is idempotent.
func TestConfigCanonical(t *testing.T) {
	canon, err := Config{}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	want := Config{
		Algebra: AlgebraRobust, Order: OrderNatural,
		LocalBacktracks: 100, SeqBacktracks: 100, MaxFrames: 32,
	}
	if canon != want {
		t.Fatalf("Canonical(zero) = %+v, want %+v", canon, want)
	}
	again, err := canon.Canonical()
	if err != nil || again != canon {
		t.Fatalf("canonicalization not idempotent: %+v vs %+v (%v)", again, canon, err)
	}
	alias, err := Config{Algebra: "non-robust"}.Canonical()
	if err != nil || alias.Algebra != AlgebraNonRobust {
		t.Fatalf("alias not resolved: %+v (%v)", alias, err)
	}
	if _, err := (Config{Algebra: "bogus"}).Canonical(); err == nil {
		t.Fatal("invalid algebra canonicalized")
	}
	if _, err := (Config{MaxTargets: -1}).CacheKey(); err == nil {
		t.Fatal("invalid config produced a cache key")
	}
}

// TestConfigCacheKey: configurations that provably produce identical
// Results share a key; result-affecting fields split it; and the key
// bytes — which also appear in checkpoints as config_key — are pinned
// verbatim, so stored keys stay valid.
func TestConfigCacheKey(t *testing.T) {
	key := func(c Config) string {
		t.Helper()
		k, err := c.CacheKey()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	for _, g := range []struct {
		cfg  Config
		want string
	}{
		{Config{}, `{"algebra":"robust","order":"natural","local_backtracks":100,"seq_backtracks":100,"max_frames":32}`},
		{Config{
			Algebra: AlgebraNonRobust, Order: OrderADI,
			LocalBacktracks: 7, SeqBacktracks: 9, MaxFrames: 11,
			DisableFaultSim: true, DisableValidation: true, StrictInit: true,
			VariationBudget: 2, Seed: -42, Workers: 3, MaxTargets: 64,
			Shards: 4, ShardIndex: 1,
		}, `{"algebra":"nonrobust","order":"adi","local_backtracks":7,"seq_backtracks":9,"max_frames":11,"disable_fault_sim":true,"disable_validation":true,"strict_init":true,"variation_budget":2,"seed":-42,"workers":3,"max_targets":64,"shards":4,"shard_index":1}`},
		// Compact excludes Shards, so it needs a config of its own.
		{Config{Compact: true}, `{"algebra":"robust","order":"natural","local_backtracks":100,"seq_backtracks":100,"max_frames":32,"compact":true}`},
	} {
		if got := key(g.cfg); got != g.want {
			t.Errorf("CacheKey(%+v)\n got %s\nwant %s", g.cfg, got, g.want)
		}
	}
	base := key(Config{})
	// Defaults spelled out collapse onto the zero config's key.
	same := []Config{
		{Algebra: AlgebraRobust, Order: OrderNatural},
		{LocalBacktracks: 100, SeqBacktracks: 100, MaxFrames: 32},
	}
	for _, c := range same {
		if key(c) != base {
			t.Errorf("%+v got its own key; Results are provably identical", c)
		}
	}
	diff := []Config{
		{Algebra: AlgebraNonRobust},
		{Order: OrderADI},
		{Seed: 7},
		{Workers: 4}, // echoed into Result JSON
		{LocalBacktracks: 50},
		{MaxTargets: 10},
		{Compact: true},
		{StrictInit: true},
	}
	seen := map[string]string{base: "zero config"}
	for _, c := range diff {
		k := key(c)
		if prev, dup := seen[k]; dup {
			t.Errorf("%+v shares a key with %s", c, prev)
		}
		seen[k] = "some variant"
	}
}

// TestEventsAbandonedConsumerUnwedgedByCancel documents the lossless
// Events contract: an abandoned consumer wedges the merge loop only
// until the Run context is cancelled, after which Run returns the usual
// coherent partial result.
func TestEventsAbandonedConsumerUnwedgedByCancel(t *testing.T) {
	c, err := Benchmark("s298")
	if err != nil {
		t.Fatal(err)
	}
	ses, err := New(c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ses.Events() // requested and then never drained
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	done := make(chan struct{})
	var res *Result
	var runErr error
	go func() {
		defer close(done)
		res, runErr = ses.Run(ctx)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("cancellation did not unwedge the abandoned consumer")
	}
	if runErr != context.Canceled || res == nil || res.Err != context.Canceled {
		t.Fatalf("Run = (%v, %v), want partial result with context.Canceled", res, runErr)
	}
	coherent(t, res)
}
