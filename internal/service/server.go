package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"time"

	"fogbuster/pkg/atpg"
)

// Options tunes the daemon; every zero field takes the stated default.
type Options struct {
	// MaxQueue bounds the pending-job queue (default 64). Submissions
	// beyond it are rejected with 503.
	MaxQueue int
	// MaxRunningJobs is the number of concurrently executing jobs
	// (default 2): the job-level parallelism the machine is shared at.
	MaxRunningJobs int
	// MaxWorkersPerJob clamps Config.Workers (default runtime.NumCPU()).
	// A request asking for 0 (all CPUs) or more than the cap runs with
	// exactly the cap; the clamped value is what the canonical config —
	// and therefore the result document and the cache key — carries.
	MaxWorkersPerJob int
	// DefaultTimeout is the per-job deadline when the request omits one
	// (default 5m); MaxTimeout (default 30m) caps requested deadlines.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxUploadBytes bounds the request body, netlist included
	// (default 16 MiB).
	MaxUploadBytes int64
	// MaxJobs bounds the job registry; beyond it the oldest finished
	// jobs are evicted (default 1024).
	MaxJobs int
	// CheckpointEvery is the period of the per-job checkpoint snapshots
	// (default 250ms): how much committed work a killed daemon can lose
	// at most. Snapshots are skipped for compacting jobs (compacted runs
	// cannot be checkpointed).
	CheckpointEvery time.Duration
}

// withDefaults resolves the zero fields.
func (o Options) withDefaults() Options {
	if o.MaxQueue <= 0 {
		o.MaxQueue = 64
	}
	if o.MaxRunningJobs <= 0 {
		o.MaxRunningJobs = 2
	}
	if o.MaxWorkersPerJob <= 0 {
		o.MaxWorkersPerJob = runtime.NumCPU()
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 5 * time.Minute
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = 30 * time.Minute
	}
	if o.MaxUploadBytes <= 0 {
		o.MaxUploadBytes = 16 << 20
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 1024
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 250 * time.Millisecond
	}
	return o
}

// Fixed service bounds: each job's event log (older events fall out of
// the SSE replay window with an explicit gap marker) and the two LRUs.
const (
	maxEventsPerJob     = 1 << 17
	resultCacheEntries  = 256
	circuitCacheEntries = 64
)

// Server is the ATPG service: scheduler, caches and HTTP handlers.
// Create with New, expose via Handler, stop with Close.
type Server struct {
	opts     Options
	sched    *scheduler
	circuits *circuitCache
	results  *resultCache
	mux      *http.ServeMux
}

// New builds a ready-to-serve ATPG service.
func New(opts Options) *Server {
	s := &Server{
		opts:     opts.withDefaults(),
		circuits: newCircuitCache(circuitCacheEntries),
		results:  newResultCache(resultCacheEntries),
		mux:      http.NewServeMux(),
	}
	s.sched = newScheduler(s.opts.MaxQueue, s.opts.MaxRunningJobs, s.opts.MaxJobs, s.runJob)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("POST /v1/jobs/{id}/resume", s.handleResume)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/benchmarks", s.handleBenchmarks)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	return s
}

// Handler returns the HTTP handler serving the /v1 API.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops admission, cancels every live job and waits for the
// runners to drain.
func (s *Server) Close() { s.sched.close() }

// SubmitRequest is the POST /v1/jobs body: exactly one circuit source
// (a built-in benchmark name, or uploaded .bench netlist text) plus the
// run configuration and an optional deadline.
type SubmitRequest struct {
	// Benchmark names a built-in circuit (see GET /v1/benchmarks).
	Benchmark string `json:"benchmark,omitempty"`
	// Bench is ISCAS'89 .bench netlist text; Name labels it in results
	// (default "upload").
	Bench string `json:"bench,omitempty"`
	Name  string `json:"name,omitempty"`
	// Config is the run configuration; it is canonicalized (defaults
	// resolved, Workers clamped to the server's per-job cap) before the
	// run, and the canonical form is what the job status and the result
	// document echo.
	Config atpg.Config `json:"config"`
	// TimeoutMS overrides the server's default per-job deadline, capped
	// at its maximum.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Checkpoint, when present, resumes a previous run from its
	// committed prefix instead of starting fresh. The circuit source is
	// still required and must match the checkpoint's content hash; the
	// run configuration comes from the checkpoint (Config is ignored).
	Checkpoint *atpg.Checkpoint `json:"checkpoint,omitempty"`
}

// errorJSON is every non-2xx body.
type errorJSON struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v) // nothing useful to do with a write error here
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorJSON{Error: fmt.Sprintf(format, args...)})
}

// handleSubmit admits one job: resolve the circuit through the
// content-hash cache, canonicalize the config, bound the deadline, and
// enqueue.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxUploadBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req SubmitRequest
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}

	if (req.Benchmark == "") == (req.Bench == "") {
		writeError(w, http.StatusBadRequest, "exactly one of benchmark or bench is required")
		return
	}
	var rawKey string
	var build func() (*atpg.Circuit, error)
	if req.Benchmark != "" {
		name := req.Benchmark
		rawKey = "builtin\x00" + name
		build = func() (*atpg.Circuit, error) { return atpg.Benchmark(name) }
	} else {
		name := req.Name
		if name == "" {
			name = "upload"
		}
		if strings.ContainsAny(name, "\x00\n\r") || len(name) > 256 {
			writeError(w, http.StatusBadRequest, "invalid circuit name")
			return
		}
		sum := sha256.Sum256([]byte(req.Bench))
		rawKey = "bench\x00" + name + "\x00" + hex.EncodeToString(sum[:])
		text := req.Bench
		build = func() (*atpg.Circuit, error) { return atpg.ParseBench(name, text) }
	}
	circuit, err := s.circuits.get(rawKey, build)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	if req.Checkpoint != nil {
		// Resume-from-checkpoint submission: the configuration lives in
		// the checkpoint, the circuit source above only re-establishes
		// the netlist (and must hash to what the checkpoint expects —
		// resumeJob verifies through atpg.Resume).
		j, code, err := s.resumeJob(circuit, req.Checkpoint, req.TimeoutMS, "")
		if err != nil {
			writeError(w, code, "%v", err)
			return
		}
		if err := s.sched.submit(j); err != nil {
			writeError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		writeJSON(w, http.StatusAccepted, j.status())
		return
	}

	cfg, err := req.Config.Canonical()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if cfg.Workers == 0 || cfg.Workers > s.opts.MaxWorkersPerJob {
		cfg.Workers = s.opts.MaxWorkersPerJob
	}
	cfgKey, err := cfg.CacheKey()
	if err != nil { // unreachable after Canonical; surfaced defensively
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	timeout, err := s.timeoutFor(req.TimeoutMS)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	j := &job{
		id:          s.sched.newID(),
		circuit:     circuit,
		circuitHash: circuit.ContentHash(),
		cfg:         cfg,
		cacheKey:    circuit.ContentHash() + "\x00" + cfgKey,
		timeout:     timeout,
		events:      newEventLog(maxEventsPerJob),
		created:     time.Now(), //lint:allow determinism job wall-clock metadata; never part of a canonical result
		state:       StateQueued,
	}
	if err := s.sched.submit(j); err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.status())
}

// timeoutFor resolves a requested per-job deadline against the server's
// default and cap.
func (s *Server) timeoutFor(ms int64) (time.Duration, error) {
	if ms < 0 {
		return 0, fmt.Errorf("negative timeout_ms %d", ms)
	}
	timeout := s.opts.DefaultTimeout
	if ms > 0 {
		timeout = time.Duration(ms) * time.Millisecond
		if timeout > s.opts.MaxTimeout {
			timeout = s.opts.MaxTimeout
		}
	}
	return timeout, nil
}

// resumeJob builds (but does not submit) a job continuing from a
// checkpoint: the run configuration is decoded from the checkpoint's
// config key, Workers re-clamped to this server's cap (the rewritten
// key is what the job and its result echo), and the checkpoint fully
// validated against the circuit via atpg.Resume. The error return
// carries the HTTP status to report.
func (s *Server) resumeJob(circuit *atpg.Circuit, ckpt *atpg.Checkpoint, timeoutMS int64, from string) (*job, int, error) {
	timeout, err := s.timeoutFor(timeoutMS)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	var cfg atpg.Config
	dec := json.NewDecoder(strings.NewReader(ckpt.ConfigKey))
	dec.DisallowUnknownFields() // as on submit: a removed field must not resume in another mode
	err = dec.Decode(&cfg)
	if _, tail := dec.Token(); err == nil && tail != io.EOF {
		err = errors.New("trailing data after the config object")
	}
	if err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("corrupt checkpoint config key: %v", err)
	}
	cfg, err = cfg.Canonical()
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	if cfg.Workers == 0 || cfg.Workers > s.opts.MaxWorkersPerJob {
		cfg.Workers = s.opts.MaxWorkersPerJob
	}
	cfgKey, err := cfg.CacheKey()
	if err != nil { // unreachable after Canonical; surfaced defensively
		return nil, http.StatusBadRequest, err
	}
	ck := *ckpt
	ck.ConfigKey = cfgKey
	if _, err := atpg.Resume(circuit, &ck); err != nil {
		return nil, http.StatusBadRequest, err
	}
	j := &job{
		id:          s.sched.newID(),
		circuit:     circuit,
		circuitHash: circuit.ContentHash(),
		cfg:         cfg,
		cacheKey:    circuit.ContentHash() + "\x00" + cfgKey,
		timeout:     timeout,
		events:      newEventLog(maxEventsPerJob),
		created:     time.Now(), //lint:allow determinism job wall-clock metadata; never part of a canonical result
		state:       StateQueued,
		resume:      &ck,
		resumedFrom: from,
	}
	return j, 0, nil
}

// resumeRequest is the POST /v1/jobs/{id}/resume body. Both fields are
// optional: with no checkpoint the job's own latest snapshot is used.
type resumeRequest struct {
	Checkpoint *atpg.Checkpoint `json:"checkpoint,omitempty"`
	TimeoutMS  int64            `json:"timeout_ms,omitempty"`
}

// handleResume serves POST /v1/jobs/{id}/resume: create a new job that
// continues the named job's run from a checkpoint — the one in the
// request body, or the job's latest snapshot. The new job is an
// ordinary job (own id, deadline, events, result); its status names the
// origin in resumed_from.
func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	j, ok := s.sched.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opts.MaxUploadBytes))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", s.opts.MaxUploadBytes)
		return
	}
	var req resumeRequest
	if len(bytes.TrimSpace(body)) > 0 {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "bad request body: %v", err)
			return
		}
	}
	ckpt := req.Checkpoint
	if ckpt == nil {
		b := j.checkpointBody()
		if b == nil {
			writeError(w, http.StatusConflict, "job %s has no checkpoint snapshot to resume from", j.id)
			return
		}
		ckpt = new(atpg.Checkpoint)
		if err := json.Unmarshal(b, ckpt); err != nil { // unreachable: we encoded it
			writeError(w, http.StatusInternalServerError, "corrupt stored checkpoint: %v", err)
			return
		}
	}
	nj, code, err := s.resumeJob(j.circuit, ckpt, req.TimeoutMS, j.id)
	if err != nil {
		writeError(w, code, "%v", err)
		return
	}
	if err := s.sched.submit(nj); err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, nj.status())
}

// handleCheckpoint serves GET /v1/jobs/{id}/checkpoint: the job's
// latest checkpoint snapshot as canonical JSON, refreshed periodically
// while the job runs and once more when it finishes.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	j, ok := s.sched.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	b := j.checkpointBody()
	if b == nil {
		writeError(w, http.StatusConflict, "job %s has no checkpoint snapshot yet", j.id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

// runJob executes one admitted job on a scheduler runner: serve from
// the results cache when possible, otherwise run a session under the
// job's own deadline (decoupled from any client connection) while
// draining its event stream into the job log.
func (s *Server) runJob(j *job) {
	if !j.beginRun() {
		return // cancelled while queued; already finished
	}
	if body, origRuntime, ok := s.results.get(j.cacheKey); ok {
		j.finish(body, origRuntime, nil, true)
		return
	}

	ctx, cancel := context.WithTimeout(context.Background(), j.timeout)
	defer cancel()
	j.bindCancel(cancel)

	var ses *atpg.Session
	var err error
	if j.resume != nil {
		ses, err = atpg.Resume(j.circuit, j.resume)
	} else {
		ses, err = atpg.New(j.circuit, j.cfg)
	}
	if err != nil { // unreachable: config and checkpoint validated at admission
		j.finish(nil, 0, err, false)
		return
	}
	events := ses.Events()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for ev := range events {
			j.events.append(ev)
		}
	}()
	// Periodic checkpoint snapshots: a killed daemon loses at most
	// CheckpointEvery of committed work. Compacting jobs cannot be
	// checkpointed (Session.Checkpoint refuses).
	snapStop := make(chan struct{})
	snapDone := make(chan struct{})
	if j.cfg.Compact {
		close(snapDone)
	} else {
		go func() {
			defer close(snapDone)
			tick := time.NewTicker(s.opts.CheckpointEvery)
			defer tick.Stop()
			for {
				select {
				case <-snapStop:
					return
				case <-tick.C:
					if ck, err := ses.Checkpoint(); err == nil {
						j.setCheckpoint(ck)
					}
				}
			}
		}()
	}
	res, runErr := ses.Run(ctx)
	cancel()
	<-drained
	close(snapStop)
	<-snapDone
	if !j.cfg.Compact {
		// Final snapshot off the finished session: the complete result,
		// or the committed prefix of a cancelled/timed-out run.
		if ck, err := ses.Checkpoint(); err == nil {
			j.setCheckpoint(ck)
		}
	}
	if res == nil {
		j.finish(nil, 0, runErr, false)
		return
	}

	// The stored document is the deterministic part of the run: the
	// wall clock moves to job metadata so responses — cache hits
	// included — are byte-identical functions of (circuit, config).
	wall := res.Runtime
	res.Runtime = 0
	var buf bytes.Buffer
	if err := atpg.EncodeJSON(&buf, res); err != nil {
		j.finish(nil, 0, err, false)
		return
	}
	body := buf.Bytes()
	if runErr == nil {
		s.results.put(j.cacheKey, body, wall)
	}
	j.finish(body, wall, runErr, false)
}

// handleStatus serves GET /v1/jobs/{id}.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.sched.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleResult serves the canonical atpg.Result JSON byte-exactly: what
// the encoder produced is what goes on the wire, so identical
// submissions are byte-identical responses.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.sched.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	body, done := j.resultBody()
	switch {
	case !done:
		writeError(w, http.StatusConflict, "job %s is %s; result not ready", j.id, j.status().State)
	case body == nil:
		writeError(w, http.StatusGone, "job %s finished without a result: %s", j.id, j.status().Err)
	default:
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	}
}

// handleCancel serves DELETE /v1/jobs/{id}: cancel the job's own
// context. A running job returns the committed-prefix partial result;
// a queued one finishes immediately with none.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.sched.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	j.requestCancel()
	writeJSON(w, http.StatusAccepted, j.status())
}

// handleEvents streams the job's commit events as server-sent events:
// the committed prefix replays from the log, then the stream follows
// live appends until the job finishes (terminal "done" event carrying
// the job status). A subscriber that outlived the bounded log window
// gets an explicit "dropped" gap event. Disconnecting never cancels the
// job — the runner, not this handler, drains the session.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.sched.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	i := 0
	for {
		evs, next, dropped, finished, wait := j.events.from(i)
		if dropped > 0 {
			writeSSE(w, "dropped", struct {
				Dropped int `json:"dropped"`
			}{dropped})
		}
		for k, ev := range evs {
			w.Write([]byte(fmt.Sprintf("id: %d\n", i+k)))
			writeSSE(w, string(ev.Kind), ev)
		}
		i = next
		if len(evs) > 0 || dropped > 0 {
			flusher.Flush()
		}
		if finished {
			writeSSE(w, "done", j.status())
			flusher.Flush()
			return
		}
		select {
		case <-wait:
		case <-r.Context().Done():
			return // client went away; the job keeps running
		}
	}
}

// writeSSE emits one SSE frame with a single-line JSON payload (HTML
// escaping off so fault names like "G10->G11/StR" stay literal).
func writeSSE(w http.ResponseWriter, event string, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, bytes.TrimRight(buf.Bytes(), "\n"))
}

// handleHealthz reports liveness and the registry tallies.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	queued, running, done := s.sched.counts()
	writeJSON(w, http.StatusOK, struct {
		Status  string `json:"status"`
		Queued  int    `json:"queued"`
		Running int    `json:"running"`
		Done    int    `json:"done"`
	}{"ok", queued, running, done})
}

// BenchmarkEntry is one row of GET /v1/benchmarks.
type BenchmarkEntry struct {
	Name string `json:"name"`
	// Exact is true only for circuits embedded verbatim; the rest are
	// profile-calibrated synthetic reconstructions (see pkg/atpg).
	Exact bool `json:"exact"`
	// Large marks the industrial-scale profiles beyond the paper's
	// Table 3.
	Large bool `json:"large,omitempty"`
}

// handleBenchmarks lists every built-in circuit a job can name.
func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	var out struct {
		Benchmarks []BenchmarkEntry `json:"benchmarks"`
		// Families are the parameterized didactic circuits: substitute a
		// size for N, e.g. rca8 or shift16.
		Families []string `json:"families"`
	}
	for _, b := range atpg.Benchmarks() {
		out.Benchmarks = append(out.Benchmarks, BenchmarkEntry{Name: b.Name, Exact: b.Exact})
	}
	for _, b := range atpg.LargeBenchmarks() {
		out.Benchmarks = append(out.Benchmarks, BenchmarkEntry{Name: b.Name, Exact: b.Exact, Large: true})
	}
	out.Benchmarks = append(out.Benchmarks, BenchmarkEntry{Name: "c17", Exact: true})
	out.Families = []string{"rca<N>", "shift<N>"}
	writeJSON(w, http.StatusOK, out)
}

// Stats is the GET /v1/stats document: the cache and scheduler counters
// the determinism tests (and operators) read.
type Stats struct {
	Jobs struct {
		Queued  int `json:"queued"`
		Running int `json:"running"`
		Done    int `json:"done"`
	} `json:"jobs"`
	CircuitCache struct {
		Entries int   `json:"entries"`
		Hits    int64 `json:"hits"`
		Misses  int64 `json:"misses"`
		Parses  int64 `json:"parses"`
	} `json:"circuit_cache"`
	ResultCache struct {
		Entries int   `json:"entries"`
		Hits    int64 `json:"hits"`
		Misses  int64 `json:"misses"`
	} `json:"result_cache"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var st Stats
	st.Jobs.Queued, st.Jobs.Running, st.Jobs.Done = s.sched.counts()
	st.CircuitCache.Entries, st.CircuitCache.Hits, st.CircuitCache.Misses, st.CircuitCache.Parses = s.circuits.counters()
	st.ResultCache.Entries, st.ResultCache.Hits, st.ResultCache.Misses = s.results.counters()
	writeJSON(w, http.StatusOK, st)
}
