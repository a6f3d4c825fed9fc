package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"fogbuster/pkg/atpg"
)

// cancelWhenRunning polls a job until some progress committed and then
// DELETEs it; it returns the terminal status. When the run outpaces the
// cancel the job finishes cleanly — callers must tolerate that (the
// resumable-checkpoint machinery handles a complete prefix too).
func cancelWhenRunning(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for {
		st := getStatus(t, base, id)
		if st.State == StateDone {
			break
		}
		if st.Done >= 3 {
			req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s made no progress", id)
		}
		time.Sleep(time.Millisecond)
	}
	return waitDone(t, base, id)
}

// getCheckpoint fetches GET /v1/jobs/{id}/checkpoint, returning the body
// and status code.
func getCheckpoint(t *testing.T, base, id string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), resp.StatusCode
}

// postResume POSTs /v1/jobs/{id}/resume with the given body and decodes
// the accepted JobStatus.
func postResume(t *testing.T, base, id string, body []byte) JobStatus {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs/"+id+"/resume", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("resume returned %d: %s", resp.StatusCode, buf.String())
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCheckpointResumeEndToEnd is the service-level failure drill:
// cancel a job mid-run, resume it from its server-side checkpoint with
// an empty POST, and the resumed job's final document is byte-identical
// to an uninterrupted direct run of the same canonical config.
func TestCheckpointResumeEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Options{CheckpointEvery: 2 * time.Millisecond})
	cfg := atpg.Config{Workers: 1, Seed: 42}
	st := postJob(t, ts.URL, SubmitRequest{Benchmark: "s298", Config: cfg})

	fin := cancelWhenRunning(t, ts.URL, st.ID)
	if fin.Err == "" {
		t.Log("run finished before the cancel landed; resuming a complete checkpoint instead")
	}
	if fin.CheckpointCursor == 0 {
		t.Fatalf("finished job has no checkpoint snapshot: %+v", fin)
	}
	body, code := getCheckpoint(t, ts.URL, st.ID)
	if code != http.StatusOK {
		t.Fatalf("GET checkpoint = %d", code)
	}
	var ck atpg.Checkpoint
	if err := json.Unmarshal(body, &ck); err != nil {
		t.Fatalf("checkpoint body does not decode: %v", err)
	}
	if ck.Cursor != fin.CheckpointCursor {
		t.Fatalf("checkpoint cursor %d != status cursor %d", ck.Cursor, fin.CheckpointCursor)
	}

	re := postResume(t, ts.URL, st.ID, nil)
	if re.ResumedFrom != st.ID {
		t.Fatalf("resumed job's resumed_from = %q, want %q", re.ResumedFrom, st.ID)
	}
	if done := waitDone(t, ts.URL, re.ID); done.Err != "" {
		t.Fatalf("resumed job failed: %+v", done)
	}
	got := getResult(t, ts.URL, re.ID)
	want := directRunBytes(t, "s298", cfg)
	if !bytes.Equal(got, want) {
		t.Error("resumed job's result diverged from an uninterrupted direct run")
	}
}

// TestResumeWithClientCheckpoint resumes by shipping the checkpoint in
// the submission itself (SubmitRequest.Checkpoint) rather than through
// the resume endpoint — the cross-server handoff path the coordinator
// uses when a worker dies.
func TestResumeWithClientCheckpoint(t *testing.T) {
	// Separate servers: the origin produces the checkpoint, the target
	// has never seen the job (and has an empty results cache, so the
	// resumed run is live, not replayed).
	_, origin := newTestServer(t, Options{CheckpointEvery: 2 * time.Millisecond})
	_, target := newTestServer(t, Options{})
	cfg := atpg.Config{Workers: 1, Seed: 7, Order: atpg.OrderADI}
	st := postJob(t, origin.URL, SubmitRequest{Benchmark: "s298", Config: cfg})
	cancelWhenRunning(t, origin.URL, st.ID)

	body, code := getCheckpoint(t, origin.URL, st.ID)
	if code != http.StatusOK {
		t.Fatalf("GET checkpoint = %d", code)
	}
	var ck atpg.Checkpoint
	if err := json.Unmarshal(body, &ck); err != nil {
		t.Fatal(err)
	}
	re := postJob(t, target.URL, SubmitRequest{Benchmark: "s298", Checkpoint: &ck})
	if done := waitDone(t, target.URL, re.ID); done.Err != "" {
		t.Fatalf("resumed job failed: %+v", done)
	}
	got := getResult(t, target.URL, re.ID)
	want := directRunBytes(t, "s298", cfg)
	if !bytes.Equal(got, want) {
		t.Error("checkpoint handed to a fresh server diverged from an uninterrupted direct run")
	}
}

// TestCheckpointMismatchedCircuitRejected: a checkpoint submitted with a
// different circuit is a 4xx error, not a crash or a silent wrong run. So
// is one whose config key carries a field Config no longer has (written
// before the field's removal): a 400, like a submit carrying it, never a
// silent resume in another mode.
func TestCheckpointMismatchedCircuitRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{CheckpointEvery: 2 * time.Millisecond})
	st := postJob(t, ts.URL, SubmitRequest{Benchmark: "s27", Config: atpg.Config{Workers: 1}})
	waitDone(t, ts.URL, st.ID)
	body, code := getCheckpoint(t, ts.URL, st.ID)
	if code != http.StatusOK {
		t.Fatalf("GET checkpoint = %d", code)
	}
	var ck atpg.Checkpoint
	if err := json.Unmarshal(body, &ck); err != nil {
		t.Fatal(err)
	}
	_, code = postJobCode(t, ts.URL, SubmitRequest{Benchmark: "s298", Checkpoint: &ck})
	if code < 400 || code >= 500 {
		t.Errorf("mismatched-circuit resume returned %d, want a 4xx", code)
	}

	var key map[string]any
	if err := json.Unmarshal([]byte(ck.ConfigKey), &key); err != nil {
		t.Fatal(err)
	}
	key["disable_validation"] = true
	b, err := json.Marshal(key)
	if err != nil {
		t.Fatal(err)
	}
	ck.ConfigKey = string(b)
	if _, code = postJobCode(t, ts.URL, SubmitRequest{Benchmark: "s27", Checkpoint: &ck}); code != http.StatusBadRequest {
		t.Errorf("resume with a removed config field returned %d, want 400", code)
	}
}

// TestCheckpointEndpointLifecycle pins the 409s: no snapshot before the
// run commits anything, and never one for a compacting job.
func TestCheckpointEndpointLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	st := postJob(t, ts.URL, SubmitRequest{Benchmark: "s27", Config: atpg.Config{Workers: 1, Compact: true}})
	waitDone(t, ts.URL, st.ID)
	if _, code := getCheckpoint(t, ts.URL, st.ID); code != http.StatusConflict {
		t.Errorf("compacting job's checkpoint = %d, want 409", code)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs/"+st.ID+"/resume", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("resume of a compacting job = %d, want 409", resp.StatusCode)
	}
	if _, code := getCheckpoint(t, ts.URL, "nope"); code != http.StatusNotFound {
		t.Errorf("unknown job's checkpoint = %d, want 404", code)
	}
}

// TestShardedJobsMergeToDirect drives the shard-aware submission layer:
// N jobs submitted with config shards/shard_index, their stored shard
// documents merged client-side, reproduce the unsharded document
// byte for byte.
func TestShardedJobsMergeToDirect(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cfg := atpg.Config{Workers: 1, Seed: 42}
	const shards = 2

	parts := make([]*atpg.Result, shards)
	for i := range parts {
		scfg := cfg
		scfg.Shards, scfg.ShardIndex = shards, i
		st := postJob(t, ts.URL, SubmitRequest{Benchmark: "s27", Config: scfg})
		if st.Config.Shards != shards || st.Config.ShardIndex != i {
			t.Fatalf("shard fields lost in canonicalization: %+v", st.Config)
		}
		if done := waitDone(t, ts.URL, st.ID); done.Err != "" {
			t.Fatalf("shard %d failed: %+v", i, done)
		}
		var res atpg.Result
		if err := json.Unmarshal(getResult(t, ts.URL, st.ID), &res); err != nil {
			t.Fatalf("shard %d result does not decode: %v", i, err)
		}
		if res.Shard == nil || res.Shard.Index != i {
			t.Fatalf("shard %d document carries no shard descriptor", i)
		}
		parts[i] = &res
	}
	merged, err := atpg.MergeResults(parts...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := atpg.EncodeJSON(&buf, merged); err != nil {
		t.Fatal(err)
	}
	if want := directRunBytes(t, "s27", cfg); !bytes.Equal(buf.Bytes(), want) {
		t.Error("merge of service-run shards diverged from the unsharded direct run")
	}
}

// TestStatsCacheCounters is the cache-observability check: a repeat
// submission of an identical job increments the result-cache hit
// counter (and the circuit cache stops re-parsing).
func TestStatsCacheCounters(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	src := benchSource(t, "s27")
	req := SubmitRequest{Bench: src, Config: atpg.Config{Workers: 1, Seed: 9}}

	before := getStats(t, ts.URL)
	if before.ResultCache.Hits != 0 || before.ResultCache.Misses != 0 {
		t.Fatalf("fresh server has nonzero result-cache counters: %+v", before.ResultCache)
	}
	st := postJob(t, ts.URL, req)
	if done := waitDone(t, ts.URL, st.ID); done.Cached {
		t.Fatalf("first run claims a cache hit: %+v", done)
	}
	mid := getStats(t, ts.URL)
	if mid.ResultCache.Misses == 0 || mid.ResultCache.Hits != 0 {
		t.Fatalf("after first run: %+v, want >=1 miss and 0 hits", mid.ResultCache)
	}
	if mid.ResultCache.Entries == 0 {
		t.Fatalf("completed run not stored in the results cache: %+v", mid.ResultCache)
	}

	st2 := postJob(t, ts.URL, req)
	if done := waitDone(t, ts.URL, st2.ID); !done.Cached {
		t.Fatalf("repeat submission not served from cache: %+v", done)
	}
	after := getStats(t, ts.URL)
	if after.ResultCache.Hits != mid.ResultCache.Hits+1 {
		t.Errorf("result-cache hits = %d after repeat, want %d", after.ResultCache.Hits, mid.ResultCache.Hits+1)
	}
	if after.CircuitCache.Hits <= mid.CircuitCache.Hits-1 {
		t.Errorf("circuit-cache hits did not grow: %d -> %d", mid.CircuitCache.Hits, after.CircuitCache.Hits)
	}
	if after.CircuitCache.Parses != mid.CircuitCache.Parses {
		t.Errorf("repeat submission re-parsed the circuit: %d -> %d parses", mid.CircuitCache.Parses, after.CircuitCache.Parses)
	}
	if !bytes.Equal(getResult(t, ts.URL, st.ID), getResult(t, ts.URL, st2.ID)) {
		t.Error("cached replay served different bytes")
	}
}

// benchSource renders a built-in benchmark back to .bench text so tests
// can submit it by source (exercising the circuit cache's parse path).
func benchSource(t *testing.T, name string) string {
	t.Helper()
	c, err := atpg.Benchmark(name)
	if err != nil {
		t.Fatal(err)
	}
	return c.Bench()
}
