// Command benchmark is the repository benchmark: six ATPG workloads
// measured from outside the engine, through the exported API of every
// layer. An untraced run reports the end-to-end metrics; a traced run
// replays the engine's per-fault flow with a span around every layer call
// and reports the per-layer metrics. See README.md.
//
//	bash benchmark/run.sh --workload table3 --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh --seed 1   # all six workloads, one process each
//
// The last line of standard output is the run's summary as JSON; the full
// report (and, when traced, a Chrome trace) goes to the -out directory.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"time"
)

// params are one run's settings.
type params struct {
	seed    int64
	seconds time.Duration
	trace   bool
	smoke   bool
}

// workloads maps each workload name to its run function; rec is nil for
// an untraced run.
var workloads = map[string]func(r *report, p params, rec *recorder) error{
	"table3":  batchRun(&table3),
	"large":   batchRun(&large),
	"adi":     batchRun(&adi),
	"shards":  batchRun(&shards),
	"service": serviceWorkload(false),
	"cache":   serviceWorkload(true),
}

func batchRun(w *batchWorkload) func(*report, params, *recorder) error {
	return func(r *report, p params, rec *recorder) error {
		if rec != nil {
			return w.traced(r, p, rec)
		}
		return w.timed(r, p)
	}
}

// runWorkload runs one workload and returns its finished report; a
// traced run also writes its Chrome trace into outDir.
func runWorkload(name string, p params, outDir string) (*report, error) {
	run, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	r := newReport(name, p)
	var rec *recorder
	if p.trace {
		rec = newRecorder()
	}
	if err := run(r, p, rec); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if rec != nil {
		path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d.trace.json", name, p.seed))
		if err := rec.writeChrome(path); err != nil {
			return nil, err
		}
	}
	r.finish()
	return r, nil
}

func main() {
	workload := flag.String("workload", "", "workload to run: table3, large, adi, shards, service or cache; empty runs all six, each in its own process")
	seed := flag.Int64("seed", 1, "workload seed: Config.Seed, the adi circuit and the service job mix")
	secs := flag.Int("seconds", 10, "how long the timed passes may take: passes run while one more fits (at least one runs)")
	trace := flag.Int("trace", 0, "1 runs the traced replay and reports the per-layer metrics")
	smoke := flag.Bool("smoke", false, "tiny inputs: s27, c17, 40-job service blocks, a small synthetic circuit")
	out := flag.String("out", filepath.Join(".bench_build", "results"), "directory for the JSON reports and Chrome traces")
	flag.Parse()
	if flag.NArg() > 0 || *trace < 0 || *trace > 1 || *secs < 0 {
		flag.Usage()
		os.Exit(2)
	}
	p := params{seed: *seed, seconds: time.Duration(*secs) * time.Second, trace: *trace == 1, smoke: *smoke}

	if *workload == "" {
		os.Exit(runAll(os.Args[1:], p))
	}
	r, err := runWorkload(*workload, p, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if err := r.save(*out); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if err := r.print(os.Stdout); err != nil {
		os.Exit(1)
	}
	if !r.Correct {
		os.Exit(1)
	}
}

// runAll runs every workload in a child process of its own, so each
// reports its own peak memory, and returns the exit code: non-zero when
// any child failed or reported an incorrect result.
func runAll(args []string, p params) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	code := 0
	for _, n := range slices.Sorted(maps.Keys(workloads)) {
		last, err := runChild(self, append(args, "--workload", n), os.Stdout)
		var s summary
		if err == nil {
			err = json.Unmarshal([]byte(last), &s)
		}
		switch {
		case err != nil:
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", n, err)
			code = 1
		case !s.Correct:
			code = 1
		}
	}
	fmt.Printf("benchmark: all workloads, seed %d, exit %d\n", p.seed, code)
	return code
}

// runChild runs the benchmark binary with args, copying its output to w,
// and returns the output's last line.
func runChild(self string, args []string, w io.Writer) (string, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return "", err
	}
	if err := cmd.Start(); err != nil {
		return "", err
	}
	var last string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		last = sc.Text()
		fmt.Fprintln(w, last)
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return last, err
	}
	return last, scanErr
}
