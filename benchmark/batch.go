package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"fogbuster/internal/bench"
	"fogbuster/internal/netlist"
	"fogbuster/pkg/atpg"
)

// batchJob is one ATPG run of a batch workload: a circuit and its
// configuration.
type batchJob struct {
	circuit *atpg.Circuit
	cfg     atpg.Config
	// netlist builds the engine's view of the circuit exactly as pkg/atpg
	// built it; the traced run needs it because node numbering decides
	// the search and pkg/atpg does not expose its netlist.
	netlist func() (*netlist.Circuit, error)
}

// batchWorkload is a workload of in-process ATPG runs.
type batchWorkload struct {
	// build makes the workload's circuits and configurations from the
	// seed; it is the set-up that setup_s times (with each circuit's
	// first atpg.New).
	build func(p params) ([]batchJob, error)
	// warmup is how many leading jobs run once, untimed, before the
	// timed passes.
	warmup int
	// shards, when positive, makes a pass run each job split that many
	// ways through the coordinator's wire round trip and MergeResults.
	shards int
	// prefix is the MaxTargets of the traced replay, per job.
	prefix int
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median. Set-up takes milliseconds, so many repetitions are cheap and
// keep the median steady.
const setupReps = 25

// s5378 is the profile of the adi workload's synthetic circuit, the size
// of ISCAS'89 s5378; the workload seed picks the circuit.
func s5378(seed int64) bench.Profile {
	return bench.Profile{Name: "s5378", PIs: 35, POs: 49, FFs: 179, Gates: 2779, TargetLines: 5378, Style: bench.Mixed, Seed: seed}
}

// tiny is the smoke configuration's synthetic circuit.
func tiny(seed int64) bench.Profile {
	return bench.Profile{Name: "tiny", PIs: 5, POs: 3, FFs: 4, Gates: 40, TargetLines: 90, Style: bench.Mixed, Seed: seed}
}

// synthesized builds a profile and hands it to pkg/atpg as .bench text,
// the way a user's own circuit arrives.
func synthesized(p bench.Profile, cfg atpg.Config) ([]batchJob, error) {
	c, err := bench.Synthesize(p)
	if err != nil {
		return nil, err
	}
	text := c.Bench()
	ac, err := atpg.ParseBench(p.Name, text)
	if err != nil {
		return nil, err
	}
	return []batchJob{{ac, cfg, func() (*netlist.Circuit, error) { return netlist.Parse(p.Name, text) }}}, nil
}

// builtins builds the named built-in circuits, each with cfg.
func builtins(cfg atpg.Config, names ...string) ([]batchJob, error) {
	jobs := make([]batchJob, len(names))
	for i, n := range names {
		c, err := atpg.Benchmark(n)
		if err != nil {
			return nil, err
		}
		jobs[i] = batchJob{c, cfg, func() (*netlist.Circuit, error) { return builtinNetlist(n) }}
	}
	return jobs, nil
}

// builtinNetlist builds a built-in circuit the way atpg.Benchmark does.
func builtinNetlist(name string) (*netlist.Circuit, error) {
	switch {
	case name == "c17":
		return bench.NewC17(), nil
	case strings.HasPrefix(name, "rca"):
		bits, err := strconv.Atoi(name[len("rca"):])
		return bench.RippleCarryAdder(bits), err
	case strings.HasPrefix(name, "shift"):
		bits, err := strconv.Atoi(name[len("shift"):])
		return bench.ShiftRegister(bits), err
	}
	if p := bench.ProfileByName(name); p != nil {
		return bench.Synthesize(*p)
	}
	return nil, fmt.Errorf("unknown benchmark %q", name)
}

var table3 = batchWorkload{
	build: func(p params) ([]batchJob, error) {
		cfg := atpg.Config{Workers: 2, Seed: p.seed}
		if p.smoke {
			return builtins(cfg, "s27")
		}
		var names []string
		for _, b := range atpg.Benchmarks() {
			names = append(names, b.Name)
		}
		return builtins(cfg, names...)
	},
	warmup: 6, // s27 to s386
	prefix: 160,
}

var large = batchWorkload{
	build: func(p params) ([]batchJob, error) {
		if p.smoke {
			return synthesized(tiny(p.seed), atpg.Config{Workers: 2, MaxTargets: 8, Seed: p.seed})
		}
		return builtins(atpg.Config{Workers: 2, MaxTargets: 64, Seed: p.seed}, "s15850")
	},
	prefix: 16,
}

var adi = batchWorkload{
	build: func(p params) ([]batchJob, error) {
		prof := s5378(p.seed)
		if p.smoke {
			prof = tiny(p.seed)
		}
		// Four targets keep the run bound by the ordering campaign: with
		// sixteen, the hardest-first targets put a third of it into search.
		return synthesized(prof, atpg.Config{Workers: 2, Order: atpg.OrderADI, MaxTargets: 4, Seed: p.seed})
	},
	prefix: 4,
}

var shards = batchWorkload{
	build: func(p params) ([]batchJob, error) {
		name := "s1196"
		if p.smoke {
			name = "s27"
		}
		return builtins(atpg.Config{Workers: 2, Seed: p.seed}, name)
	},
	shards: 4,
	prefix: 1024,
}

// canonical returns the canonical JSON document of a result with the
// wall clock zeroed, the bytes every determinism check compares.
func canonical(res *atpg.Result) ([]byte, error) {
	c := *res
	c.Runtime = 0
	var buf bytes.Buffer
	err := atpg.EncodeJSON(&buf, &c)
	return buf.Bytes(), err
}

// checkResult verifies a result's self-checks: no sequence rejected by the
// independent validator, and every fault accounted for.
func checkResult(res *atpg.Result) error {
	if res.ValidationFailures != 0 {
		return fmt.Errorf("%s: %d validation failures", res.Circuit, res.ValidationFailures)
	}
	if n := res.Tested + res.Untestable + res.Aborted + res.Pending; n != len(res.Faults) {
		return fmt.Errorf("%s: tested+untestable+aborted+pending = %d, want %d faults", res.Circuit, n, len(res.Faults))
	}
	return nil
}

// runSession is one ATPG job: atpg.New plus Session.Run.
func runSession(c *atpg.Circuit, cfg atpg.Config) (*atpg.Result, error) {
	ses, err := atpg.New(c, cfg)
	if err != nil {
		return nil, err
	}
	return ses.Run(context.Background())
}

// passResult is what one pass over a workload's jobs produced.
type passResult struct {
	latencies []time.Duration
	docs      []string      // sha256 of each job's canonical document
	merge     time.Duration // MergeResults plus the merged document's encoding
	tested    int
	aborted   int
	patterns  int
}

// record checks one result of a pass and keeps its document digest.
func (pr *passResult) record(r *report, res *atpg.Result, err error) {
	if err == nil {
		err = checkResult(res)
	}
	var doc []byte
	if err == nil {
		doc, err = canonical(res)
	}
	r.check(err)
	if err != nil {
		pr.docs = append(pr.docs, "")
		return
	}
	sum := sha256.Sum256(doc)
	pr.docs = append(pr.docs, hex.EncodeToString(sum[:]))
	pr.tested += res.Tested
	pr.aborted += res.Aborted
	pr.patterns += res.Patterns
}

// pass runs the jobs once. With w.shards set, each job is split into
// shard runs whose documents go through the wire round trip (EncodeJSON,
// json.Unmarshal) before MergeResults stitches them; the merged document
// is then encoded once more, as a coordinator would write it.
func (w *batchWorkload) pass(r *report, jobs []batchJob) passResult {
	var pr passResult
	for _, j := range jobs {
		if w.shards == 0 {
			start := time.Now()
			res, err := runSession(j.circuit, j.cfg)
			pr.latencies = append(pr.latencies, time.Since(start))
			pr.record(r, res, err)
			continue
		}
		parts := make([]*atpg.Result, w.shards)
		for i := range parts {
			start := time.Now()
			cfg := j.cfg
			cfg.Shards, cfg.ShardIndex = w.shards, i
			res, err := runSession(j.circuit, cfg)
			var doc bytes.Buffer
			if err == nil {
				err = atpg.EncodeJSON(&doc, res)
			}
			parts[i] = new(atpg.Result)
			if err == nil {
				err = json.Unmarshal(doc.Bytes(), parts[i])
			}
			pr.latencies = append(pr.latencies, time.Since(start))
			r.check(err)
		}
		start := time.Now()
		merged, err := atpg.MergeResults(parts...)
		if err == nil {
			var doc bytes.Buffer
			err = atpg.EncodeJSON(&doc, merged)
		}
		pr.merge += time.Since(start)
		pr.record(r, merged, err)
	}
	return pr
}

// setup builds the workload setupReps times (once in smoke runs), timing
// each build plus the first atpg.New of every circuit, and returns the
// last build's jobs.
func (w *batchWorkload) setup(r *report, p params) ([]batchJob, error) {
	reps := setupReps
	if p.smoke {
		reps = 1
	}
	var times []float64
	var jobs []batchJob
	for k := 0; k < reps; k++ {
		runtime.GC() // a collection landing inside a millisecond rep would dominate it
		start := time.Now()
		var err error
		jobs, err = w.build(p)
		if err != nil {
			return nil, err
		}
		for _, j := range jobs {
			if _, err := atpg.New(j.circuit, j.cfg); err != nil {
				return nil, err
			}
		}
		times = append(times, time.Since(start).Seconds())
	}
	r.set("setup_s", median(times))
	return jobs, nil
}

// timed is an untraced run: set-up, warm-up, then passes until the run's
// measuring time is spent (at least one).
func (w *batchWorkload) timed(r *report, p params) error {
	jobs, err := w.setup(r, p)
	if err != nil {
		return err
	}

	var ref []string // per-job document digests every pass must repeat
	if w.shards > 0 {
		// The unsharded run is the reference the merged documents must
		// equal byte for byte.
		for _, j := range jobs {
			var pr passResult
			res, err := runSession(j.circuit, j.cfg)
			pr.record(r, res, err)
			ref = append(ref, pr.docs...)
		}
	} else if n := min(w.warmup, len(jobs)); n > 0 {
		ref = w.pass(r, jobs[:n]).docs
	}

	var walls, merges []float64
	var lat []time.Duration
	var first passResult
	start := time.Now()
	for len(walls) == 0 || fits(start, walls[len(walls)-1], p.seconds) {
		t := time.Now()
		pr := w.pass(r, jobs)
		walls = append(walls, time.Since(t).Seconds())
		lat = append(lat, pr.latencies...)
		merges = append(merges, float64(pr.merge)/float64(time.Millisecond))
		if len(walls) == 1 {
			first = pr
		}
		for i, d := range ref {
			r.check(sameDoc(jobs, i, d, pr.docs[i]))
		}
		// Jobs past the warm-up are checked from the second pass on.
		ref = append(ref, pr.docs[len(ref):]...)
	}

	total := 0.0
	for _, s := range walls {
		total += s
	}
	r.set("jobs_per_s", float64(len(lat))/total)
	latencies(r, lat)
	r.set("peak_rss_mb", peakRSSMB())
	r.extra("passes", float64(len(walls)), "count")
	r.extra("tested", float64(first.tested), "count")
	r.extra("aborted", float64(first.aborted), "count")
	r.extra("patterns", float64(first.patterns), "count")
	if w.shards > 0 {
		r.extra("atpg.merge_ms", median(merges), "ms")
	}
	r.ResultSHA256 = digestOf(first.docs)
	return nil
}

// fits reports whether one more pass as long as the last one (in
// seconds) ends within the measuring time that began at start.
func fits(start time.Time, last float64, budget time.Duration) bool {
	return time.Since(start)+time.Duration(last*float64(time.Second)) <= budget
}

// sameDoc reports a job whose document changed between passes.
func sameDoc(jobs []batchJob, i int, want, got string) error {
	if want == got {
		return nil
	}
	name := "?"
	if i < len(jobs) {
		name = jobs[i].circuit.Name()
	}
	return fmt.Errorf("%s: canonical result changed between passes (%.12s vs %.12s)", name, want, got)
}

// digestOf folds per-document digests into one.
func digestOf(docs []string) string {
	h := sha256.New()
	for _, d := range docs {
		h.Write([]byte(d))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// traced is a traced run: the workload's jobs on a MaxTargets prefix,
// each through a single-worker core run, the spanned replay and a
// two-worker pkg/atpg session.
func (w *batchWorkload) traced(r *report, p params, rec *recorder) error {
	et := &engineTrace{rec: rec}
	jobs, err := w.build(p)
	if err != nil {
		return err
	}
	for _, j := range jobs {
		cfg := j.cfg
		if w.prefix > 0 && (cfg.MaxTargets == 0 || w.prefix < cfg.MaxTargets) {
			cfg.MaxTargets = w.prefix
		}
		if w.shards > 0 {
			cfg.Shards = 1 // deferred credit, as every shard of the timed run
		}
		if err := et.job(r, j, cfg); err != nil {
			return err
		}
	}
	et.report(r)
	r.set("front.overhead_ms", percentile(sortedMS(et.front), 50))
	return nil
}
