package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"
)

// TestTailPercentile pins the tail rule: the highest of p90, p95 and
// p99 that keeps at least ten samples beyond its nearest rank, and the
// slowest sample when none does.
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1000, 99}, // rank 990, 10 beyond
		{999, 95},  // p99 would leave 9
		{200, 95},  // rank 190, 10 beyond
		{199, 90},  // p95 would leave 9
		{100, 90},  // rank 90, 10 beyond
		{99, 100},  // p90 would leave 9
		{1, 100},
	} {
		if p := tailPercentile(tc.n); p != tc.want {
			t.Errorf("n=%d: got p%v, want p%v", tc.n, p, tc.want)
		}
	}
}

// TestLatencies: p50_ms and tail_ms are nearest-rank percentiles of the
// samples, the tail the slowest sample when there are too few for p90,
// and the report says how many samples and which percentile it used.
func TestLatencies(t *testing.T) {
	for _, tc := range []struct {
		n             int
		p50, tail, pc float64
	}{
		{12, 6, 12, 100},
		{400, 200, 380, 95},
	} {
		r := newReport("x", params{})
		var samples []time.Duration
		for i := tc.n; i >= 1; i-- {
			samples = append(samples, time.Duration(i)*time.Millisecond)
		}
		latencies(r, samples)
		if p50, tail := r.Metrics["p50_ms"].Value, r.Metrics["tail_ms"].Value; p50 != tc.p50 || tail != tc.tail {
			t.Errorf("1..%d ms: p50=%v tail=%v, want %v and %v", tc.n, p50, tail, tc.p50, tc.tail)
		}
		if n, pc := r.Extra["latency.samples"].Value, r.Extra["latency.tail_percentile"].Value; n != float64(tc.n) || pc != tc.pc {
			t.Errorf("1..%d ms: samples=%v percentile=%v, want %d and %v", tc.n, n, pc, tc.n, tc.pc)
		}
	}
}

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSpecsMatchBenchmarkJSON keeps the metric tables and the workload
// list in step with BENCHMARK.json.
func TestSpecsMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var e2e, layer []spec
	for _, m := range b.EndToEnd {
		e2e = append(e2e, spec{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range b.PerLayer {
		layer = append(layer, spec{m.Name, m.Unit, m.Better})
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json %v, harness %v", e2e, endToEnd)
	}
	if !slices.Equal(layer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json %v, harness %v", layer, perLayer)
	}
	var names, want []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	for n := range workloads {
		want = append(want, n)
	}
	slices.Sort(names)
	slices.Sort(want)
	if !slices.Equal(names, want) {
		t.Fatalf("workloads in BENCHMARK.json %v, harness %v", names, want)
	}
}

// TestSmoke runs every workload on the smoke inputs, untraced and
// traced, and checks that each run is correct and reports exactly the
// metrics BENCHMARK.json names for its mode.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	for _, w := range b.Workloads {
		for _, trace := range []bool{false, true} {
			r, err := runWorkload(w.Name, params{seed: 7, trace: trace, smoke: true}, t.TempDir())
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !r.Correct || r.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failures %v", w.Name, trace, r.Correct, r.Attempted, r.Failures)
			}
			var want []string
			if trace {
				for _, m := range b.PerLayer {
					want = append(want, m.Name)
				}
			} else {
				for _, m := range b.EndToEnd {
					want = append(want, m.Name)
				}
			}
			for _, n := range want {
				if _, ok := r.Metrics[n]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, n)
				}
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(r.Metrics), len(want))
			}
		}
	}
}
