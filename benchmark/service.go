package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fogbuster/internal/bench"
	"fogbuster/internal/service"
	"fogbuster/pkg/atpg"
)

// The service workloads drive internal/service over HTTP the way atpgd's
// clients do: a closed loop of two clients, each with one keep-alive
// connection, each job a POST /v1/jobs, the SSE stream until its done
// event, then GET .../result. The traffic is assumed, not observed: no
// atpgd traffic has been recorded. It is split into the two classes of
// job a result cache sees, one workload each, so that each workload's
// latency percentiles describe one class:
//   - service: every job is cold, a fresh seed on one of five classes
//     drawn uniformly: the built-ins s27, c17, rca8 and shift16, and an
//     upload of a syntactic variant of s27's .bench text;
//   - cache: every job is hot, a resubmission of one of the warmSet cold
//     bodies that ran, untimed, before the loop.
// Both deal their draws in shuffled rounds (each class, or each warm body,
// once per round), so every seed gets the same mix and a percentile falls
// at the same place in it.

const (
	serviceClients = 2
	serviceBlock   = 250 // jobs per block: passes are whole blocks
	warmSet        = 60  // the cache workload's bodies, 12 of each class
	uploadVariants = 16
	// tracedPerCircuit is how many cold bodies of each built-in circuit
	// the traced run replays.
	tracedPerCircuit = 4
)

// serviceOptions is the server configuration: two running jobs of one
// engine worker each, so the engine load matches two workers.
var serviceOptions = service.Options{MaxRunningJobs: 2, MaxWorkersPerJob: 1}

// body is one distinct request of the job list.
type body struct {
	req  service.SubmitRequest
	json []byte
}

// jobGen deals the seeded job list.
type jobGen struct {
	rng      *rand.Rand
	circuits []string // the built-in classes; the upload is one more
	variants []string // .bench texts of the upload variants
	bodies   []body
	classes  []int // the rest of the current round of classes
	warm     []int // the rest of the current round of warm bodies
}

func newJobGen(p params) *jobGen {
	g := &jobGen{rng: rand.New(rand.NewSource(p.seed))}
	g.circuits = []string{"s27", "c17", "rca8", "shift16"}
	if p.smoke {
		g.circuits = []string{"s27", "c17"}
	}
	for v := 0; v < uploadVariants; v++ {
		g.variants = append(g.variants, variant(bench.S27, g.rng))
	}
	return g
}

// variant rewrites .bench text without changing the design: comments,
// blank lines and whitespace around the tokens, so every variant parses
// to the same content hash as the original.
func variant(src string, rng *rand.Rand) string {
	var b strings.Builder
	for _, line := range strings.Split(src, "\n") {
		if rng.Intn(4) == 0 {
			fmt.Fprintf(&b, "# variant note %d\n", rng.Intn(1000))
		}
		if rng.Intn(3) == 0 {
			line = strings.ReplaceAll(line, ", ", " ,\t")
		}
		if rng.Intn(3) == 0 {
			line = strings.Replace(line, " = ", "=", 1)
		}
		b.WriteString(strings.Repeat(" ", rng.Intn(3)) + line + "\n")
	}
	return b.String()
}

// add records a new distinct body and returns its index.
func (g *jobGen) add(req service.SubmitRequest) int {
	raw, err := json.Marshal(req)
	if err != nil {
		panic(err) // a SubmitRequest always marshals
	}
	g.bodies = append(g.bodies, body{req, raw})
	return len(g.bodies) - 1
}

// cold deals n new bodies, each a fresh seed on the next class of the
// current round.
func (g *jobGen) cold(n int) []int {
	out := make([]int, n)
	for i := range out {
		if len(g.classes) == 0 {
			g.classes = g.rng.Perm(len(g.circuits) + 1)
		}
		class := g.classes[0]
		g.classes = g.classes[1:]
		cfg := atpg.Config{Workers: 1, Seed: g.rng.Int63()}
		if class == len(g.circuits) {
			text := g.variants[g.rng.Intn(len(g.variants))]
			out[i] = g.add(service.SubmitRequest{Bench: text, Name: "s27", Config: cfg})
		} else {
			out[i] = g.add(service.SubmitRequest{Benchmark: g.circuits[class], Config: cfg})
		}
	}
	return out
}

// hot deals n resubmissions of the first warm bodies, each once per
// round.
func (g *jobGen) hot(n, warm int) []int {
	out := make([]int, n)
	for i := range out {
		if len(g.warm) == 0 {
			g.warm = g.rng.Perm(warm)
		}
		out[i] = g.warm[0]
		g.warm = g.warm[1:]
	}
	return out
}

// outcome is what one job returned, with its phase boundaries.
type outcome struct {
	body      int
	id        string
	cached    bool
	runtimeNS int64
	events    int
	doc       [sha256.Size]byte
	err       error
	// start, submitted, streamed and done are offsets from the run's
	// epoch: before the POST, after it, after the SSE done event, and
	// after the result's last byte.
	start, submitted, streamed, done time.Duration
}

func (o *outcome) latency() time.Duration { return o.done - o.start }

// client is one closed-loop client with a single keep-alive connection.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

// do runs one job end to end.
func (c *client) do(b *body, epoch time.Time) (o outcome) {
	o.start = time.Since(epoch)
	defer func() { o.done = time.Since(epoch) }()

	resp, err := c.http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(b.json))
	if err != nil {
		o.err = err
		return
	}
	var st service.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || err != nil {
		o.err = fmt.Errorf("submit: status %d, %v", resp.StatusCode, err)
		return
	}
	o.id = st.ID
	o.submitted = time.Since(epoch)

	if o.err = c.stream(&o); o.err != nil {
		return
	}
	o.streamed = time.Since(epoch)

	resp, err = c.http.Get(c.base + "/v1/jobs/" + o.id + "/result")
	if err != nil {
		o.err = err
		return
	}
	doc, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil {
		o.err = fmt.Errorf("result %s: status %d, %v", o.id, resp.StatusCode, err)
		return
	}
	o.doc = sha256.Sum256(doc)
	return
}

// stream follows the job's SSE stream to its done event, counting the
// events before it and taking the final status from the done frame.
func (c *client) stream(o *outcome) error {
	resp, err := c.http.Get(c.base + "/v1/jobs/" + o.id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events %s: status %d", o.id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	done := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: done":
			done = true
		case strings.HasPrefix(line, "event: "):
			o.events++
		case done && strings.HasPrefix(line, "data: "):
			var st service.JobStatus
			if err := json.Unmarshal([]byte(line[len("data: "):]), &st); err != nil {
				return fmt.Errorf("events %s: done frame: %v", o.id, err)
			}
			if st.Err != "" || !st.HasResult {
				return fmt.Errorf("job %s finished without a result: %q", o.id, st.Err)
			}
			o.cached, o.runtimeNS = st.Cached, st.RuntimeNS
			// Drain the rest so the connection is reused.
			_, err := io.Copy(io.Discard, resp.Body)
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("events %s: stream ended without a done event", o.id)
}

// runBlock runs the jobs with the closed-loop clients and returns their
// outcomes in list order.
func runBlock(clients []*client, g *jobGen, jobs []int, epoch time.Time) []outcome {
	out := make([]outcome, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				out[i] = c.do(&g.bodies[jobs[i]], epoch)
				out[i].body = jobs[i]
			}
		}(c)
	}
	wg.Wait()
	return out
}

// getStats reads /v1/stats.
func getStats(base string) (service.Stats, error) {
	var st service.Stats
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// startServer starts the service behind an httptest server and waits
// until /v1/healthz answers.
func startServer() (*service.Server, *httptest.Server, error) {
	s := service.New(serviceOptions)
	ts := httptest.NewServer(s.Handler())
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: status %d", resp.StatusCode)
		}
	}
	if err != nil {
		ts.Close()
		s.Close()
		return nil, nil, err
	}
	return s, ts, nil
}

// serviceRun is the measured loop's raw data.
type serviceRun struct {
	warm     []outcome // the cache workload's untimed warm-up jobs
	outcomes []outcome
	walls    []float64
	before   service.Stats
	after    service.Stats
	alloc    uint64
}

// loop runs the cache workload's warm-up, then blocks of jobs until the
// run's measuring time is spent (one block of 40 jobs in smoke runs).
func loop(base string, g *jobGen, hot bool, p params, epoch time.Time) (*serviceRun, error) {
	clients := make([]*client, serviceClients)
	for i := range clients {
		clients[i] = newClient(base)
		defer clients[i].http.CloseIdleConnections()
	}
	block, warm := serviceBlock, warmSet
	if p.smoke {
		block, warm = 40, 12
	}
	sr := &serviceRun{}
	deal := g.cold
	if hot {
		sr.warm = runBlock(clients, g, g.cold(warm), epoch)
		deal = func(n int) []int { return g.hot(n, warm) }
	}
	var err error
	if sr.before, err = getStats(base); err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for len(sr.walls) == 0 || (!p.smoke && fits(start, sr.walls[len(sr.walls)-1], p.seconds)) {
		t := time.Now()
		sr.outcomes = append(sr.outcomes, runBlock(clients, g, deal(block), epoch)...)
		sr.walls = append(sr.walls, time.Since(t).Seconds())
	}
	runtime.ReadMemStats(&ms1)
	sr.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	sr.after, err = getStats(base)
	return sr, err
}

// verify checks every job: no failure, every job of a body served the
// same document, and that document is byte-identical to a direct
// pkg/atpg run of the body (untimed, two bodies at a time).
func verify(r *report, g *jobGen, outs []outcome) {
	served := map[int][sha256.Size]byte{}
	var distinct []int
	for _, o := range outs {
		r.check(o.err)
		if o.err != nil {
			continue
		}
		if d, ok := served[o.body]; !ok {
			served[o.body] = o.doc
			distinct = append(distinct, o.body)
		} else if d != o.doc {
			r.check(fmt.Errorf("job %s: body %d served two different documents", o.id, o.body))
		}
	}

	var builtin sync.Map // name → *atpg.Circuit, shared by the direct runs
	errs := make([]error, len(distinct))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(distinct) {
					return
				}
				b := &g.bodies[distinct[i]]
				doc, err := direct(b.req, &builtin)
				if err == nil && sha256.Sum256(doc) != served[distinct[i]] {
					err = fmt.Errorf("body %d (%s%s seed %d): served document differs from a direct run",
						distinct[i], b.req.Benchmark, b.req.Name, b.req.Config.Seed)
				}
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		r.check(err)
	}
	r.extra("service.distinct_bodies", float64(len(distinct)), "count")
}

// direct runs a request through pkg/atpg as the service would: the
// canonical configuration with workers clamped to the per-job cap.
func direct(req service.SubmitRequest, builtin *sync.Map) ([]byte, error) {
	var c *atpg.Circuit
	if req.Benchmark != "" {
		if v, ok := builtin.Load(req.Benchmark); ok {
			c = v.(*atpg.Circuit)
		} else {
			built, err := atpg.Benchmark(req.Benchmark)
			if err != nil {
				return nil, err
			}
			v, _ := builtin.LoadOrStore(req.Benchmark, built)
			c = v.(*atpg.Circuit)
		}
	} else {
		var err error
		if c, err = atpg.ParseBench(req.Name, req.Bench); err != nil {
			return nil, err
		}
	}
	cfg, err := req.Config.Canonical()
	if err != nil {
		return nil, err
	}
	cfg.Workers = serviceOptions.MaxWorkersPerJob
	ses, err := atpg.New(c, cfg)
	if err != nil {
		return nil, err
	}
	res, err := ses.Run(context.Background())
	if err != nil {
		return nil, err
	}
	return canonical(res)
}

// serviceWorkload is the run of the service workload (cold jobs) or,
// with hot set, of the cache workload.
func serviceWorkload(hot bool) func(*report, params, *recorder) error {
	return func(r *report, p params, rec *recorder) error {
		if !p.trace {
			if err := serverSetup(r, p); err != nil {
				return err
			}
		}
		s, ts, err := startServer()
		if err != nil {
			return err
		}
		defer s.Close()
		defer ts.Close()
		g := newJobGen(p)
		epoch := time.Now()
		if rec != nil {
			epoch = rec.epoch
		}
		sr, err := loop(ts.URL, g, hot, p, epoch)
		if err != nil {
			return err
		}
		verify(r, g, append(sr.warm, sr.outcomes...))
		serviceExtras(r, sr)
		if rec != nil {
			return traceService(r, sr, g, rec)
		}

		var lat []time.Duration
		h := sha256.New() // over the first block, which every run of the seed deals alike
		for i, o := range sr.outcomes {
			if o.err != nil {
				continue
			}
			if i < serviceBlock {
				h.Write(o.doc[:])
			}
			lat = append(lat, o.latency())
		}
		r.ResultSHA256 = fmt.Sprintf("%x", h.Sum(nil))
		total := 0.0
		for _, w := range sr.walls {
			total += w
		}
		r.set("jobs_per_s", float64(len(sr.outcomes))/total)
		latencies(r, lat)
		r.set("peak_rss_mb", peakRSSMB())
		return nil
	}
}

// serverSetup times setupReps server starts, each until /v1/healthz
// answers, and sets setup_s to their median.
func serverSetup(r *report, p params) error {
	reps := setupReps
	if p.smoke {
		reps = 1
	}
	var times []float64
	for k := 0; k < reps; k++ {
		runtime.GC()
		start := time.Now()
		s, ts, err := startServer()
		if err != nil {
			return err
		}
		times = append(times, time.Since(start).Seconds())
		ts.Close()
		s.Close()
	}
	r.set("setup_s", median(times))
	return nil
}

// serviceExtras reports the loop's /v1/stats deltas, its job count and
// the engine time of its cold jobs.
func serviceExtras(r *report, sr *serviceRun) {
	share := func(hits, misses int64) float64 { return ratio(float64(hits), float64(hits+misses)) }
	before, after := sr.before, sr.after
	var run []time.Duration
	events := 0
	for _, o := range sr.outcomes {
		events += o.events
		if o.err == nil && !o.cached {
			run = append(run, time.Duration(o.runtimeNS))
		}
	}
	r.extra("jobs", float64(len(sr.outcomes)), "count")
	r.extra("service.result_hit_ratio", share(after.ResultCache.Hits-before.ResultCache.Hits, after.ResultCache.Misses-before.ResultCache.Misses), "ratio")
	r.extra("service.circuit_hit_ratio", share(after.CircuitCache.Hits-before.CircuitCache.Hits, after.CircuitCache.Misses-before.CircuitCache.Misses), "ratio")
	r.extra("service.parses", float64(after.CircuitCache.Parses-before.CircuitCache.Parses), "count")
	r.extra("service.events_per_job", ratio(float64(events), float64(len(sr.outcomes))), "count")
	if len(run) > 0 {
		r.extra("service.run_p50_ms", percentile(sortedMS(run), 50), "ms")
	}
}

// traceService finishes a traced service run: the jobs' phases become
// spans (trace id: the job's place in the list), front.overhead_ms is
// each job's time outside the engine, and the first cold bodies of every
// built-in circuit are replayed through the engine.
func traceService(r *report, sr *serviceRun, g *jobGen, rec *recorder) error {
	var front []time.Duration
	for i, o := range sr.outcomes {
		tid := int64(1)<<40 | int64(i)
		root := int32(len(rec.spans))
		rec.spans = append(rec.spans,
			span{name: "service.job", trace: tid, parent: -1, start: o.start, end: o.done},
			span{name: "service.submit", trace: tid, parent: root, start: o.start, end: o.submitted},
			span{name: "service.events", trace: tid, parent: root, start: o.submitted, end: o.streamed},
			span{name: "service.result", trace: tid, parent: root, start: o.streamed, end: o.done})
		if o.err != nil {
			continue
		}
		d := o.latency()
		if !o.cached {
			d -= time.Duration(o.runtimeNS)
		}
		front = append(front, d)
	}

	et := &engineTrace{rec: rec}
	perCircuit := map[string]int{}
	for _, b := range g.bodies {
		name := b.req.Benchmark
		if name == "" || perCircuit[name] >= tracedPerCircuit {
			continue
		}
		perCircuit[name]++
		jobs, err := builtins(b.req.Config, name)
		if err != nil {
			return err
		}
		if err := et.job(r, jobs[0], b.req.Config); err != nil {
			return err
		}
	}
	et.report(r)
	r.set("front.overhead_ms", percentile(sortedMS(front), 50))
	r.set("go.alloc_mb", float64(sr.alloc)/(1<<20)/float64(len(sr.walls))) // per block
	return nil
}
