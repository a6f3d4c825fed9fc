package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"syscall"
	"time"
)

// spec is one metric of the contract in BENCHMARK.json: its name, unit
// and which direction is better. TestSpecsMatchBenchmarkJSON keeps the
// two lists below and the JSON file in step.
type spec struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run of every workload. A job is one Session run on the batch
// workloads (one circuit, or one shard with its wire round trip) and one
// HTTP job on the service workloads.
var endToEnd = []spec{
	{"setup_s", "s", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"tail_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics, one set per layer boundary the
// replay crosses. Each is defined on every workload; README.md maps each
// to the end-to-end metric it should move, and on which workload.
var perLayer = []spec{
	{"tdgen.next_s", "s", "lower"},
	{"tdgen.next_calls", "count", "lower"},
	{"tdgen.backtracks", "count", "lower"},
	{"tdgen.found_ratio", "ratio", "higher"},
	{"semilet.propagate_s", "s", "lower"},
	{"semilet.propagate_ok_ratio", "ratio", "higher"},
	{"semilet.sync_s", "s", "lower"},
	{"semilet.sync_ok_ratio", "ratio", "higher"},
	{"semilet.backtracks", "count", "lower"},
	{"tdsim.confirm_s", "s", "lower"},
	{"tdsim.validations", "count", "lower"},
	{"tdsim.detect_s", "s", "lower"},
	{"tdsim.credit_ratio", "ratio", "higher"},
	{"order.perm_s", "s", "lower"},
	{"atpg.new_s", "s", "lower"},
	{"core.serial_s", "s", "lower"},
	{"core.speedup", "ratio", "higher"},
	{"core.glue_s", "s", "lower"},
	{"front.overhead_ms", "ms", "lower"},
	{"go.alloc_mb", "MB", "lower"},
	{"trace.coverage", "ratio", "higher"},
}

// value is one reported number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the benchmark's last line of standard output.
type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report is everything one run measured: the contract metrics, the
// workload-specific extras (Table 3 columns, latency sample counts, the
// shard merge, the service caches) and every correctness failure.
type report struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	summary
	Extra        map[string]value `json:"extra"`
	ResultSHA256 string           `json:"result_sha256,omitempty"`
	Failures     []string         `json:"failures,omitempty"`
}

func newReport(workload string, p params) *report {
	return &report{
		Workload: workload,
		Seed:     p.seed,
		Trace:    p.trace,
		summary:  summary{Metrics: map[string]value{}},
		Extra:    map[string]value{},
	}
}

// units maps every contract metric to its unit.
var units = func() map[string]string {
	m := map[string]string{}
	for _, s := range append(append([]spec(nil), endToEnd...), perLayer...) {
		m[s.name] = s.unit
	}
	return m
}()

// set records a contract metric, taking its unit from the spec tables.
func (r *report) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in the contract")
	}
	r.Metrics[name] = value{v, unit}
}

// extra records a workload-specific number outside the contract.
func (r *report) extra(name string, v float64, unit string) {
	r.Extra[name] = value{v, unit}
}

// check counts one attempted operation and records its failure, if any.
func (r *report) check(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		r.Failures = append(r.Failures, err.Error())
	}
}

// finish sets Correct and fail_ratio, and verifies that exactly the
// contract metrics of the run's mode are present. fail_ratio is an extra:
// a gated metric must never be zero, and any failure already makes the
// run incorrect.
func (r *report) finish() {
	want := endToEnd
	if r.Trace {
		want = perLayer
	}
	for _, s := range want {
		if _, ok := r.Metrics[s.name]; !ok {
			r.check(fmt.Errorf("metric %s was not measured", s.name))
		}
	}
	if len(r.Metrics) != len(want) {
		r.check(fmt.Errorf("run reported %d contract metrics, want %d", len(r.Metrics), len(want)))
	}
	r.Correct = r.Failed == 0
	r.extra("fail_ratio", ratio(float64(r.Failed), float64(r.Attempted)), "ratio")
}

// print writes the human-readable table, then the summary as the last
// line.
func (r *report) print(w io.Writer) error {
	fmt.Fprintf(w, "workload %s seed %d trace %v\n", r.Workload, r.Seed, r.Trace)
	for _, group := range []map[string]value{r.Metrics, r.Extra} {
		for _, n := range slices.Sorted(maps.Keys(group)) {
			fmt.Fprintf(w, "  %-30s %16.6f %s\n", n, group[n].Value, group[n].Unit)
		}
	}
	if r.ResultSHA256 != "" {
		fmt.Fprintf(w, "  result_sha256 %s\n", r.ResultSHA256)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
	line, err := json.Marshal(r.summary)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// save writes the full report as JSON into dir.
func (r *report) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, btoi(r.Trace))
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// percentile returns the nearest-rank p-th percentile of ascending
// samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	return sorted[k]
}

// tailCandidates are the percentiles tail_ms may report, ascending. A
// fixed short list keeps the reported percentile the same from run to run
// while the sample count wanders with the host's speed.
var tailCandidates = []float64{90, 95, 99}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailPercentile picks the highest candidate percentile that leaves at
// least minBeyond of n samples beyond its nearest rank; with fewer
// samples than any candidate needs it picks 100, the slowest sample.
func tailPercentile(n int) float64 {
	for i := len(tailCandidates) - 1; i >= 0; i-- {
		rank := int(math.Ceil(tailCandidates[i] / 100 * float64(n)))
		if n-rank >= minBeyond {
			return tailCandidates[i]
		}
	}
	return 100
}

// sortedMS converts durations to ascending milliseconds.
func sortedMS(samples []time.Duration) []float64 {
	ms := make([]float64, len(samples))
	for i, d := range samples {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	return ms
}

// latencies sets p50_ms and tail_ms from the run's job latencies and
// records the sample count and the percentile tail_ms reports.
func latencies(r *report, samples []time.Duration) {
	ms := sortedMS(samples)
	p := tailPercentile(len(ms))
	r.set("p50_ms", percentile(ms, 50))
	r.set("tail_ms", percentile(ms, p))
	r.extra("latency.samples", float64(len(ms)), "count")
	r.extra("latency.tail_percentile", p, "pct")
}

// median returns the median of the samples (the mean of the middle two
// for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
