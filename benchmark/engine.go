package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"fogbuster/internal/core"
	"fogbuster/internal/netlist"
	"fogbuster/internal/order"
	"fogbuster/pkg/atpg"
)

// engineTrace accumulates the traced engine work of one run: for every
// traced job a two-worker pkg/atpg session on the prefix, a single-worker
// core run (untraced, the reference and the serial wall time), the spanned
// replay of the same run, and a second single-worker run for timing.
type engineTrace struct {
	rec *recorder
	cnt layerCounts
	// groups numbers the traced jobs; it is the upper half of their
	// spans' trace ids.
	groups int64

	newS     time.Duration // first atpg.New of each circuit
	serial   time.Duration // core.New + Run, one worker, mean of two runs
	parallel time.Duration // Session.Run, two workers
	alloc    uint64        // bytes allocated by the two-worker sessions
	// front holds each session's time outside the engine: atpg.New plus
	// Session.Run minus the engine's own Result.Runtime, plus the wire
	// round trip on sharded jobs, as the timed run's job latency counts it.
	front []time.Duration
}

// coreOptions translates the pkg/atpg configuration fields the workloads
// use into the engine options the replay honours.
func coreOptions(cfg atpg.Config) (core.Options, error) {
	h, err := order.Parse(cfg.Order)
	if err != nil {
		return core.Options{}, err
	}
	return core.Options{Order: h, Seed: cfg.Seed, MaxTargets: cfg.MaxTargets, DeferCredit: cfg.Shards > 0}, nil
}

// job traces one ATPG job with cfg in place of the job's own
// configuration. The circuit must be fresh from its build: its first
// atpg.New is what atpg.new_s times.
func (et *engineTrace) job(r *report, j batchJob, cfg atpg.Config) error {
	c := j.circuit
	cfg.Workers = 2
	// Each timed part starts from a collected heap, so none pays for the
	// garbage of the part before it.
	runtime.GC()
	start := time.Now()
	ses, err := atpg.New(c, cfg)
	if err != nil {
		return err
	}
	newS := time.Since(start)
	et.newS += newS

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start = time.Now()
	res, err := ses.Run(context.Background())
	run := time.Since(start)
	et.parallel += run
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return err
	}
	et.alloc += ms1.TotalAlloc - ms0.TotalAlloc
	r.check(checkResult(res))
	front := newS + run - res.Runtime
	if cfg.Shards > 0 {
		start = time.Now()
		var doc bytes.Buffer
		err := atpg.EncodeJSON(&doc, res)
		if err == nil {
			err = json.Unmarshal(doc.Bytes(), new(atpg.Result))
		}
		front += time.Since(start)
		r.check(err)
	}
	et.front = append(et.front, front)

	nl, err := j.netlist()
	if err != nil {
		return err
	}
	opts, err := coreOptions(cfg)
	if err != nil {
		return err
	}
	serialOpts := opts
	serialOpts.Workers = 1
	// The serial engine runs before and after the replay and counts with
	// their mean, so a change in host speed during the replay moves both
	// sides of trace.coverage alike.
	before, sum, err := serialRun(nl, serialOpts)
	if err != nil {
		return err
	}
	r.check(sameCounts(c.Name(), res, sum))

	runtime.GC()
	got, err := runReplay(nl, opts, et.rec, &et.cnt, et.groups)
	et.groups++
	if err != nil {
		return err
	}
	r.check(compareWithCore(c.Name(), sum, got))

	after, _, err := serialRun(nl, serialOpts)
	et.serial += (before + after) / 2
	return err
}

// serialRun times core.New plus Run from a collected heap.
func serialRun(nl *netlist.Circuit, opts core.Options) (time.Duration, *core.Summary, error) {
	runtime.GC()
	start := time.Now()
	eng, err := core.New(nl, opts)
	if err != nil {
		return 0, nil, err
	}
	sum := eng.Run()
	return time.Since(start), sum, nil
}

// sameCounts checks the two-worker session against the single-worker
// engine run: the same prefix must classify identically.
func sameCounts(name string, res *atpg.Result, sum *core.Summary) error {
	if res.Tested != sum.Tested || res.Explicit != sum.Explicit || res.Untestable != sum.Untestable ||
		res.Aborted != sum.Aborted || res.Patterns != sum.Patterns {
		return fmt.Errorf("%s: two-worker session (%d/%d/%d/%d) differs from the serial engine (%d/%d/%d/%d)",
			name, res.Tested, res.Untestable, res.Aborted, res.Patterns, sum.Tested, sum.Untestable, sum.Aborted, sum.Patterns)
	}
	return nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// report sets every per-layer metric the engine side measures.
func (et *engineTrace) report(r *report) {
	rec, cnt := et.rec, &et.cnt
	for metric, span := range map[string]string{
		"tdgen.next_s":        "tdgen.next",
		"semilet.propagate_s": "semilet.propagate",
		"semilet.sync_s":      "semilet.sync",
		"tdsim.confirm_s":     "tdsim.confirm",
		"tdsim.detect_s":      "tdsim.detect",
		"order.perm_s":        "order.perm",
	} {
		r.set(metric, rec.total(span).Seconds())
	}
	r.set("tdgen.next_calls", float64(cnt.nextCalls))
	r.set("tdgen.backtracks", float64(cnt.genBacktracks))
	r.set("tdgen.found_ratio", ratio(float64(cnt.found), float64(cnt.nextCalls)))
	r.set("semilet.propagate_ok_ratio", ratio(float64(cnt.propOK), float64(cnt.propCalls)))
	r.set("semilet.sync_ok_ratio", ratio(float64(cnt.syncOK), float64(cnt.syncCalls)))
	r.set("semilet.backtracks", float64(cnt.seqBacktracks))
	r.set("tdsim.validations", float64(cnt.validations))
	r.set("tdsim.credit_ratio", ratio(float64(cnt.credited), float64(cnt.detected)))

	var spans time.Duration
	for _, s := range layerSpans {
		spans += rec.total(s)
	}
	r.set("atpg.new_s", et.newS.Seconds())
	r.set("core.serial_s", et.serial.Seconds())
	r.set("core.speedup", ratio(et.serial.Seconds(), et.parallel.Seconds()))
	r.set("core.glue_s", (et.serial - spans).Seconds())
	r.set("trace.coverage", ratio(spans.Seconds(), et.serial.Seconds()))
	r.set("go.alloc_mb", float64(et.alloc)/(1<<20))
	r.extra("trace.spans", float64(len(rec.spans)), "count")
}
