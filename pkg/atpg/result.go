package atpg

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"fogbuster/internal/core"
	"fogbuster/internal/faults"
	"fogbuster/internal/netlist"
	"fogbuster/internal/sim"
)

// Status classifies one fault at the end of a run. The string values are
// the canonical JSON encoding and are stable.
type Status string

const (
	// StatusPending means the fault was not processed (only possible in
	// the partial Result of a cancelled run).
	StatusPending Status = "pending"
	// StatusTested means a test sequence was explicitly generated.
	StatusTested Status = "tested"
	// StatusTestedBySim means fault simulation of another fault's
	// sequence detected this fault.
	StatusTestedBySim Status = "tested_by_sim"
	// StatusUntestable means the complete search space holds no robust
	// test.
	StatusUntestable Status = "untestable"
	// StatusAborted means a backtrack budget ran out first.
	StatusAborted Status = "aborted"
)

// Detected reports whether the status counts into the paper's "tested"
// column.
func (s Status) Detected() bool { return s == StatusTested || s == StatusTestedBySim }

// statusOf converts the engine's classification.
func statusOf(st core.Status) Status {
	switch st {
	case core.Tested:
		return StatusTested
	case core.TestedBySim:
		return StatusTestedBySim
	case core.Untestable:
		return StatusUntestable
	case core.Aborted:
		return StatusAborted
	default:
		return StatusPending
	}
}

// legacyStatus is the pre-API CSV spelling of a status.
func legacyStatus(s Status) string {
	switch s {
	case StatusTestedBySim:
		return "tested(sim)"
	default:
		return string(s)
	}
}

// Sequence is one complete delay fault test in the paper's time-frame
// model. Every frame is a string over the alphabet 0, 1 and X (one
// character per primary input, X marking don't-cares): initialization
// vectors under the slow clock, the two-pattern local test V1 (slow) and
// V2 (fast), and the propagation vectors under the slow clock.
type Sequence struct {
	// Fault names the targeted fault, e.g. "G10->G11/StR".
	Fault string `json:"fault"`
	// Sync holds the synchronizing prefix (slow clock).
	Sync []string `json:"sync,omitempty"`
	// V1 and V2 are the two-pattern test; V2 is captured with the fast
	// clock.
	V1 string `json:"v1"`
	V2 string `json:"v2"`
	// Prop holds the propagation tail (slow clock).
	Prop []string `json:"prop,omitempty"`
	// ObservePO is the primary output observing the effect, or -1.
	ObservePO int `json:"observe_po"`
	// ObservePPO is the state element capturing the effect in the fast
	// frame, or -1 when the effect reaches a PO directly.
	ObservePPO int `json:"observe_ppo"`
	// Assumed holds power-up state bits the optimistic initialization
	// policy committed to (one character per state element), empty for
	// strictly synchronized tests.
	Assumed string `json:"assumed,omitempty"`
	// Dropped marks a sequence removed by test-set compaction: every
	// fault it covered is detected by a kept sequence.
	Dropped bool `json:"dropped,omitempty"`
	// Follows, when non-empty, names the fault whose sequence this one
	// was spliced after; it is valid only applied immediately after that
	// test.
	Follows string `json:"follows,omitempty"`
	// Detects lists the canonical fault indices this sequence detects
	// under the engine's concrete fill, sorted ascending. It is recorded
	// only in the partial Result of a shard run (Config.Shards), where
	// fault-simulation credit is deferred to MergeResults; the merged
	// document strips it, so unsharded and merged canonical JSON stay
	// byte-identical.
	Detects []int `json:"detects,omitempty"`
}

// Len returns the vector count of the sequence (initialization and
// propagation included), the paper's per-test pattern cost.
func (s *Sequence) Len() int { return len(s.Sync) + 2 + len(s.Prop) }

// Frames flattens the sequence in application order.
func (s *Sequence) Frames() []string {
	out := make([]string, 0, s.Len())
	out = append(out, s.Sync...)
	out = append(out, s.V1, s.V2)
	out = append(out, s.Prop...)
	return out
}

// FaultResult is the outcome for one fault.
type FaultResult struct {
	// Fault names the fault, e.g. "G10->G11/StR".
	Fault  string    `json:"fault"`
	Status Status    `json:"status"`
	Seq    *Sequence `json:"seq,omitempty"` // non-nil only for explicitly tested faults
}

// Compaction summarizes what test-set compaction did to the run.
type Compaction struct {
	Sequences      int  `json:"sequences"`       // explicit sequences before compaction
	Kept           int  `json:"kept"`            // sequences surviving the reverse-order drop
	Dropped        int  `json:"dropped"`         // sequences whose covered faults later tests detect
	PatternsBefore int  `json:"patterns_before"` // total vectors before compaction
	PatternsAfter  int  `json:"patterns_after"`  // total vectors after dropping and splicing
	Splices        int  `json:"splices"`         // adjacent sequence pairs overlap-merged
	SplicedFrames  int  `json:"spliced_frames"`  // vectors saved by the overlap merges
	Complete       bool `json:"complete"`        // recorded detection sets covered every detected fault
}

// Result aggregates one run. It is self-contained (fault and signal
// names are resolved strings) and has a canonical, round-trippable JSON
// encoding — the machine-readable interface of the engine.
type Result struct {
	Circuit string `json:"circuit"`
	Algebra string `json:"algebra"`
	Order   string `json:"order"`
	Seed    int64  `json:"seed"`
	// Workers echoes Config.Workers; it never changes the numbers below.
	Workers    int `json:"workers,omitempty"`
	Tested     int `json:"tested"` // explicit + simulation credit
	Explicit   int `json:"explicit"`
	Untestable int `json:"untestable"`
	Aborted    int `json:"aborted"`
	// Pending counts unprocessed faults; non-zero only for a cancelled
	// run.
	Pending int `json:"pending,omitempty"`
	// Patterns is the total vector count over all generated sequences.
	Patterns int `json:"patterns"`
	// Runtime is the wall-clock duration in nanoseconds (the one
	// non-deterministic field).
	Runtime time.Duration `json:"runtime_ns"`
	// ValidationFailures counts generated sequences the independent
	// checker rejected; it must be zero and exists as a self-check.
	ValidationFailures int `json:"validation_failures,omitempty"`
	// Cursor is the committed-prefix cursor of an interrupted run: the
	// next targeting position the merge loop would have committed.
	// Present only when Err is set (a complete run's cursor is implied by
	// its window); Resume continues a run from here.
	Cursor int `json:"cursor,omitempty"`
	// Shard describes the window of the targeting order this partial
	// Result covers when the run was one shard of a distributed run
	// (Config.Shards); nil for an ordinary run. MergeResults consumes it
	// and the merged document omits it.
	Shard *ShardInfo `json:"shard,omitempty"`
	// Faults is the per-fault classification in the canonical fault
	// order of the circuit.
	Faults []FaultResult `json:"faults"`
	// Compaction is present when the test set was compacted.
	Compaction *Compaction `json:"compaction,omitempty"`
	// Err is the context error of a cancelled run, nil for a complete
	// one. It is encoded as the "err" string in JSON; context.Canceled
	// and context.DeadlineExceeded survive a round trip as the same
	// sentinel values.
	Err error `json:"-"`
}

// resultAlias strips Result's methods so the wire struct below never
// recurses into the custom (un)marshalers.
type resultAlias Result

// resultJSON is the wire shape of Result: identical except that Err is a
// string.
type resultJSON struct {
	resultAlias
	ErrString string `json:"err,omitempty"`
}

// MarshalJSON encodes the canonical wire form. The inner encoder runs
// with HTML escaping off so fault names ("G10->G11/StR") stay literal;
// see EncodeJSON for the indented document form.
func (r *Result) MarshalJSON() ([]byte, error) {
	w := resultJSON{resultAlias: resultAlias(*r)}
	if r.Err != nil {
		w.ErrString = r.Err.Error()
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(w); err != nil {
		return nil, err
	}
	return bytes.TrimRight(buf.Bytes(), "\n"), nil
}

// UnmarshalJSON decodes the canonical wire form, restoring the context
// sentinel errors by their messages.
func (r *Result) UnmarshalJSON(data []byte) error {
	var w resultJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*r = Result(w.resultAlias)
	switch w.ErrString {
	case "":
		r.Err = nil
	case context.Canceled.Error():
		r.Err = context.Canceled
	case context.DeadlineExceeded.Error():
		r.Err = context.DeadlineExceeded
	default:
		r.Err = errors.New(w.ErrString)
	}
	return nil
}

// Classified returns the number of processed faults: tested (explicit
// and credited), untestable and aborted. It equals len(Faults) minus
// Pending.
func (r *Result) Classified() int {
	return r.Tested + r.Untestable + r.Aborted
}

// tally recounts the status columns and the pattern total from Faults.
func (r *Result) tally() {
	r.Tested, r.Explicit, r.Untestable, r.Aborted, r.Pending, r.Patterns = 0, 0, 0, 0, 0, 0
	for _, fr := range r.Faults {
		switch fr.Status {
		case StatusTested:
			r.Tested++
			r.Explicit++
		case StatusTestedBySim:
			r.Tested++
		case StatusUntestable:
			r.Untestable++
		case StatusAborted:
			r.Aborted++
		default:
			r.Pending++
		}
		if fr.Seq != nil {
			r.Patterns += fr.Seq.Len()
		}
	}
}

// EncodeJSON writes the canonical JSON document for v (a Result, a
// Result slice, a Sequence, …): two-space indentation, no HTML escaping
// (fault names contain "->"), one trailing newline. The golden tests pin
// this form byte for byte.
func EncodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(v)
}

// WriteCSV emits the per-fault classification and the generated
// sequences in the legacy CSV shape (one row per fault, frames joined
// with "|", X for don't-cares), unchanged from the pre-API tools.
func (r *Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"fault", "status", "vectors", "observe_po", "sequence", "dropped", "follows"}); err != nil {
		return err
	}
	for _, fr := range r.Faults {
		rec := []string{fr.Fault, legacyStatus(fr.Status), "", "", "", "", ""}
		if fr.Seq != nil {
			rec[2] = strconv.Itoa(fr.Seq.Len())
			rec[3] = strconv.Itoa(fr.Seq.ObservePO)
			rec[4] = strings.Join(fr.Seq.Frames(), "|")
			rec[5] = strconv.FormatBool(fr.Seq.Dropped)
			rec[6] = fr.Seq.Follows
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// vecString renders one three-valued frame as 0/1/X characters.
func vecString(v []sim.V3) string {
	var sb strings.Builder
	for _, b := range v {
		sb.WriteString(b.String())
	}
	return sb.String()
}

// frameStrings renders a frame list.
func frameStrings(frames [][]sim.V3) []string {
	if len(frames) == 0 {
		return nil
	}
	out := make([]string, len(frames))
	for i, f := range frames {
		out[i] = vecString(f)
	}
	return out
}

// sequenceOf converts an engine sequence, resolving names against the
// circuit. detectIdx, when non-nil, maps faults to canonical indices so
// the recorded detection set of a shard run survives into the JSON.
func sequenceOf(c *netlist.Circuit, t *core.TestSequence, detectIdx map[faults.Delay]int) *Sequence {
	s := &Sequence{
		Fault:      t.Fault.Name(c),
		Sync:       frameStrings(t.Sync),
		V1:         vecString(t.V1),
		V2:         vecString(t.V2),
		Prop:       frameStrings(t.Prop),
		ObservePO:  t.ObservePO,
		ObservePPO: t.ObservePPO,
		Dropped:    t.Dropped,
	}
	if t.Assumed != nil && sim.KnownCount(t.Assumed) > 0 {
		s.Assumed = vecString(t.Assumed)
	}
	if t.Follows != nil {
		s.Follows = t.Follows.Name(c)
	}
	if detectIdx != nil && len(t.Detects) > 0 {
		s.Detects = make([]int, 0, len(t.Detects))
		for _, f := range t.Detects {
			if i, ok := detectIdx[f]; ok {
				s.Detects = append(s.Detects, i)
			}
		}
		sort.Ints(s.Detects)
	}
	return s
}

// resultOf converts an engine summary into the public result.
func resultOf(c *netlist.Circuit, cfg Config, sum *core.Summary, runErr error) *Result {
	r := &Result{
		Circuit:            sum.Circuit,
		Algebra:            sum.Algebra,
		Order:              sum.Order,
		Seed:               cfg.Seed,
		Workers:            cfg.Workers,
		Runtime:            sum.Runtime,
		ValidationFailures: sum.ValidationFailures,
		Faults:             make([]FaultResult, len(sum.Results)),
		Err:                runErr,
	}
	var detectIdx map[faults.Delay]int
	if cfg.Shards > 0 {
		detectIdx = make(map[faults.Delay]int, len(sum.Results))
		for i, fr := range sum.Results {
			detectIdx[fr.Fault] = i
		}
	}
	for i, fr := range sum.Results {
		out := FaultResult{Fault: fr.Fault.Name(c), Status: statusOf(fr.Status)}
		if fr.Seq != nil {
			out.Seq = sequenceOf(c, fr.Seq, detectIdx)
		}
		r.Faults[i] = out
	}
	r.tally()
	if runErr != nil {
		r.Cursor = sum.Cursor
	}
	if cfg.Shards > 0 {
		total := effTargets(len(sum.Results), cfg)
		lo, hi := shardRange(total, cfg.Shards, cfg.ShardIndex)
		key, _ := cfg.runKey() // cfg was validated when the session was built
		r.Shard = &ShardInfo{
			Shards: cfg.Shards, Index: cfg.ShardIndex,
			Lo: lo, Hi: hi, Total: total, Cursor: sum.Cursor,
			ConfigKey: key,
			Positions: append([]int(nil), sum.Perm[:sum.Cursor-sum.Lo]...),
		}
	}
	if sum.Compaction != nil {
		// Splices shortened the kept sequences; Patterns still counts
		// every generated vector.
		r.Patterns = sum.Patterns
		st := sum.Compaction
		r.Compaction = &Compaction{
			Sequences: st.Sequences, Kept: st.Kept, Dropped: st.Dropped,
			PatternsBefore: st.PatternsBefore, PatternsAfter: st.PatternsAfter,
			Splices: st.Splices, SplicedFrames: st.SplicedFrames,
			Complete: st.Complete,
		}
	}
	return r
}
