package atpg

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"fogbuster/internal/core"
	"fogbuster/internal/faults"
	"fogbuster/internal/order"
)

// ShardInfo describes the targeting-order window a partial Result
// covers when it was produced by one shard of a distributed run
// (Config.Shards). Positions [Lo, Hi) of the ordered permutation belong
// to the shard and [Lo, Cursor) are committed; Total is the length of
// the whole targeted prefix (the fault universe, or Config.MaxTargets
// of a budgeted run) so MergeResults can verify the shards tile it.
type ShardInfo struct {
	// Shards and Index echo Config.Shards and Config.ShardIndex.
	Shards int `json:"shards"`
	Index  int `json:"index"`
	// Lo and Hi bound the shard's window of targeting positions.
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Total is the targeted-prefix length the run was split over.
	Total int `json:"total"`
	// Cursor is the committed-prefix cursor: positions [Lo, Cursor) are
	// final. Cursor == Hi for a completed shard.
	Cursor int `json:"cursor"`
	// ConfigKey is the distributed run's identity: the Config.CacheKey
	// with the shard selectors additionally cleared. Every shard of one
	// run carries the same ConfigKey and MergeResults refuses to merge
	// parts that disagree.
	ConfigKey string `json:"config_key"`
	// Positions lists the fault index at every committed position, in
	// position order (Positions[k] is the fault targeted at position
	// Lo+k). It is the slice of the ordering permutation the merge needs
	// to replay the global credit chronology without recomputing the
	// ordering heuristic.
	Positions []int `json:"positions,omitempty"`
}

// Checkpoint is a resumable snapshot of a run: the identity of the
// circuit and configuration plus the committed Result prefix. The
// committed prefix of a run is bit-identical to the same prefix of an
// uninterrupted run (cancellation truncates, never reorders, the commit
// chronology), which is what makes resuming from the cursor sound.
// Checkpoints have a canonical JSON encoding (EncodeJSON) and round-trip
// through it.
type Checkpoint struct {
	// CircuitHash is Circuit.ContentHash of the circuit the run was on;
	// Resume refuses a different circuit.
	CircuitHash string `json:"circuit_hash"`
	// ConfigKey is the full Config.CacheKey of the run, shard selectors
	// included; Resume reconstructs the Config from it.
	ConfigKey string `json:"config_key"`
	// Cursor is the targeting position the run resumes from: positions
	// before it are committed in Result.
	Cursor int `json:"cursor"`
	// Result is the committed prefix.
	Result *Result `json:"result"`
}

// shardRange splits [0, total) into shards near-equal contiguous
// windows and returns the idx-th: ragged remainders go to the leading
// shards, so every split tiles the range exactly.
func shardRange(total, shards, idx int) (lo, hi int) {
	base, rem := total/shards, total%shards
	lo = idx*base + min(idx, rem)
	hi = lo + base
	if idx < rem {
		hi++
	}
	return lo, hi
}

// effTargets returns the targeted-prefix length of a run: the whole
// fault universe, or Config.MaxTargets of a budgeted run.
func effTargets(n int, cfg Config) int {
	if cfg.MaxTargets > 0 && cfg.MaxTargets < n {
		return cfg.MaxTargets
	}
	return n
}

// coreStatusOf is the inverse of statusOf.
func coreStatusOf(s Status) core.Status {
	switch s {
	case StatusTested:
		return core.Tested
	case StatusTestedBySim:
		return core.TestedBySim
	case StatusUntestable:
		return core.Untestable
	case StatusAborted:
		return core.Aborted
	default:
		return core.Pending
	}
}

// preloadOf converts a committed Result prefix into the engine's
// status-preload array.
func preloadOf(res *Result) []core.Status {
	out := make([]core.Status, len(res.Faults))
	for i, fr := range res.Faults {
		out[i] = coreStatusOf(fr.Status)
	}
	return out
}

// CheckpointOf builds a checkpoint from a Result returned by Run — a
// complete one, or the coherent partial Result of a cancelled run. The
// circuitHash and cfg must be the ones the session ran with (see
// Session.Checkpoint for the common path that supplies them). Compacted
// runs cannot be checkpointed: compaction rewrites committed sequences,
// so the prefix is no longer a prefix of an uninterrupted chronology.
func CheckpointOf(res *Result, circuitHash string, cfg Config) (*Checkpoint, error) {
	if res == nil {
		return nil, errors.New("atpg: checkpoint of nil result")
	}
	if cfg.Compact || res.Compaction != nil {
		return nil, errors.New("atpg: cannot checkpoint a compacted run")
	}
	key, err := cfg.CacheKey()
	if err != nil {
		return nil, err
	}
	cursor := effTargets(len(res.Faults), cfg) // complete run
	switch {
	case res.Shard != nil:
		cursor = res.Shard.Cursor
	case res.Err != nil:
		cursor = res.Cursor
	}
	return &Checkpoint{CircuitHash: circuitHash, ConfigKey: key, Cursor: cursor, Result: res}, nil
}

// Resume prepares a session that continues a checkpointed run on the
// same circuit from its cursor. The committed prefix is preloaded, the
// engine processes only positions at and after the cursor, and the
// Result of the resumed Run is bit-identical to the Result of an
// uninterrupted run — the prefix chronology is final and every fault's
// search is a pure function of its canonical index. Resuming under a
// different circuit (by content hash) or a corrupt checkpoint is an
// error.
func Resume(c *Circuit, ckpt *Checkpoint) (*Session, error) {
	if c == nil || c.c == nil {
		return nil, errors.New("atpg: nil circuit")
	}
	if ckpt == nil || ckpt.Result == nil {
		return nil, errors.New("atpg: nil checkpoint")
	}
	if got := c.ContentHash(); got != ckpt.CircuitHash {
		return nil, fmt.Errorf("atpg: checkpoint is for a different circuit (content hash %.12s, want %.12s)", ckpt.CircuitHash, got)
	}
	var cfg Config
	if err := json.Unmarshal([]byte(ckpt.ConfigKey), &cfg); err != nil {
		return nil, fmt.Errorf("atpg: corrupt checkpoint config key: %v", err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("atpg: corrupt checkpoint config key: %v", err)
	}
	if len(ckpt.Result.Faults) != c.Faults() {
		return nil, fmt.Errorf("atpg: checkpoint covers %d faults, circuit has %d", len(ckpt.Result.Faults), c.Faults())
	}
	total := effTargets(c.Faults(), cfg)
	lo, hi := 0, total
	if cfg.Shards > 0 {
		lo, hi = shardRange(total, cfg.Shards, cfg.ShardIndex)
	}
	if ckpt.Cursor < lo || ckpt.Cursor > hi {
		return nil, fmt.Errorf("atpg: checkpoint cursor %d outside the run window [%d,%d]", ckpt.Cursor, lo, hi)
	}
	if cfg.Shards > 0 {
		sh := ckpt.Result.Shard
		if sh == nil {
			return nil, errors.New("atpg: shard checkpoint carries no shard window")
		}
		if len(sh.Positions) != ckpt.Cursor-lo {
			return nil, fmt.Errorf("atpg: shard checkpoint carries %d committed positions, cursor implies %d", len(sh.Positions), ckpt.Cursor-lo)
		}
	}
	return newSession(c, cfg, ckpt, nil)
}

// MergeResults merges the partial Results of a run's disjoint shards
// into the document an unsharded run of the same configuration
// produces, byte for byte in canonical JSON — except Runtime, which is
// zero on the merged Result (wall clock is the one non-deterministic
// field). Shard runs defer fault-simulation credit (every window
// position is explicitly processed and its full detection set
// recorded), so the merge replays the global commit chronology: walk
// positions 0..Total, take each position's outcome from the shard that
// owns it (first in argument order), keep an explicit sequence only if
// its target is still pending — exactly the single-process rule — and
// apply its recorded detections to pending faults. Overlapping parts
// (an aborted shard plus its resumed continuation) are fine; a position
// no part committed is an error naming the unaccounted range, as is any
// disagreement between parts on circuit, configuration or the fault at
// a shared position.
func MergeResults(parts ...*Result) (*Result, error) {
	if len(parts) == 0 {
		return nil, errors.New("atpg: no results to merge")
	}
	for i, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("atpg: part %d is nil", i)
		}
		if p.Shard == nil {
			return nil, fmt.Errorf("atpg: part %d is not a shard result (run with Config.Shards to defer credit)", i)
		}
		if p.Compaction != nil {
			return nil, fmt.Errorf("atpg: part %d is compacted", i)
		}
	}
	ref := parts[0]
	total := ref.Shard.Total
	for i, p := range parts {
		switch {
		case p.Circuit != ref.Circuit:
			return nil, fmt.Errorf("atpg: part %d is for circuit %q, part 0 for %q", i, p.Circuit, ref.Circuit)
		case p.Shard.ConfigKey != ref.Shard.ConfigKey:
			return nil, fmt.Errorf("atpg: part %d ran a different configuration than part 0", i)
		case p.Shard.Total != total:
			return nil, fmt.Errorf("atpg: part %d targeted %d positions, part 0 %d", i, p.Shard.Total, total)
		case len(p.Faults) != len(ref.Faults):
			return nil, fmt.Errorf("atpg: part %d covers %d faults, part 0 %d", i, len(p.Faults), len(ref.Faults))
		}
		sh := p.Shard
		if sh.Lo < 0 || sh.Cursor < sh.Lo || sh.Hi < sh.Cursor || sh.Hi > total {
			return nil, fmt.Errorf("atpg: part %d has inconsistent window lo=%d cursor=%d hi=%d total=%d", i, sh.Lo, sh.Cursor, sh.Hi, total)
		}
		if len(sh.Positions) != sh.Cursor-sh.Lo {
			return nil, fmt.Errorf("atpg: part %d carries %d committed positions, cursor implies %d", i, len(sh.Positions), sh.Cursor-sh.Lo)
		}
		for j, fr := range p.Faults {
			if fr.Fault != ref.Faults[j].Fault {
				return nil, fmt.Errorf("atpg: part %d disagrees with part 0 on fault %d (%q vs %q)", i, j, fr.Fault, ref.Faults[j].Fault)
			}
		}
	}

	// Tile the targeted prefix: owner[p] is the first part in argument
	// order that committed position p, posFault[p] the fault targeted
	// there (every part that committed p must agree).
	owner := make([]int, total)
	posFault := make([]int, total)
	for p := range owner {
		owner[p] = -1
	}
	for i, part := range parts {
		sh := part.Shard
		for k, fi := range sh.Positions {
			p := sh.Lo + k
			if fi < 0 || fi >= len(ref.Faults) {
				return nil, fmt.Errorf("atpg: part %d commits fault index %d out of range at position %d", i, fi, p)
			}
			if owner[p] < 0 {
				owner[p], posFault[p] = i, fi
				continue
			}
			if posFault[p] != fi {
				return nil, fmt.Errorf("atpg: parts %d and %d disagree on the fault at position %d (%d vs %d)", owner[p], i, p, posFault[p], fi)
			}
		}
	}
	for p := 0; p < total; p++ {
		if owner[p] >= 0 {
			continue
		}
		q := p
		for q < total && owner[q] < 0 {
			q++
		}
		return nil, fmt.Errorf("atpg: shard coverage gap: positions [%d,%d) of %d are unaccounted for", p, q, total)
	}

	// Replay the global chronology.
	out := &Result{
		Circuit: ref.Circuit, Algebra: ref.Algebra, Order: ref.Order,
		Seed: ref.Seed, Workers: ref.Workers,
		Faults: make([]FaultResult, len(ref.Faults)),
	}
	for i, fr := range ref.Faults {
		out.Faults[i] = FaultResult{Fault: fr.Fault, Status: StatusPending}
	}
	for p := 0; p < total; p++ {
		fi := posFault[p]
		if out.Faults[fi].Status != StatusPending {
			// An earlier position's sequence credited this fault; its own
			// shard outcome is discarded, exactly as the single-process
			// merge loop discards a late outcome for a credited fault.
			continue
		}
		row := parts[owner[p]].Faults[fi]
		switch row.Status {
		case StatusTested:
			if row.Seq == nil {
				return nil, fmt.Errorf("atpg: part %d marks fault %d tested without a sequence", owner[p], fi)
			}
			seq := *row.Seq
			detects := seq.Detects
			seq.Detects = nil
			out.Faults[fi].Status = StatusTested
			out.Faults[fi].Seq = &seq
			out.Tested++
			out.Explicit++
			out.Patterns += seq.Len()
			for _, d := range detects {
				if d >= 0 && d < len(out.Faults) && out.Faults[d].Status == StatusPending {
					out.Faults[d].Status = StatusTestedBySim
					out.Tested++
				}
			}
		case StatusUntestable:
			out.Faults[fi].Status = StatusUntestable
			out.Untestable++
		case StatusAborted:
			out.Faults[fi].Status = StatusAborted
			out.Aborted++
		default:
			return nil, fmt.Errorf("atpg: part %d carries no explicit outcome for fault %d at position %d (status %q); parts must come from deferred-credit shard runs", owner[p], fi, p, row.Status)
		}
	}
	for _, fr := range out.Faults {
		if fr.Status == StatusPending {
			out.Pending++
		}
	}
	for _, p := range parts {
		out.ValidationFailures += p.ValidationFailures
	}
	return out, nil
}

// stitchPrefix folds the committed prefix of a resumed run's checkpoint
// into res, which covers only the positions processed since the
// checkpoint's cursor: prefix sequences are attached to their (already
// preloaded) statuses, the counters recomputed over the union, and — in
// shard mode — the committed position lists concatenated.
func stitchPrefix(res, prefix *Result) {
	for i := range res.Faults {
		r, p := &res.Faults[i], &prefix.Faults[i]
		if r.Status == StatusPending && p.Status != StatusPending {
			r.Status, r.Seq = p.Status, p.Seq
		} else if r.Seq == nil && p.Seq != nil {
			r.Seq = p.Seq
		}
	}
	res.Tested, res.Explicit, res.Untestable, res.Aborted, res.Pending, res.Patterns = 0, 0, 0, 0, 0, 0
	for _, fr := range res.Faults {
		switch fr.Status {
		case StatusTested:
			res.Tested++
			res.Explicit++
		case StatusTestedBySim:
			res.Tested++
		case StatusUntestable:
			res.Untestable++
		case StatusAborted:
			res.Aborted++
		default:
			res.Pending++
		}
		if fr.Seq != nil {
			res.Patterns += fr.Seq.Len()
		}
	}
	res.ValidationFailures += prefix.ValidationFailures
	if res.Shard != nil && prefix.Shard != nil {
		pos := make([]int, 0, len(prefix.Shard.Positions)+len(res.Shard.Positions))
		pos = append(pos, prefix.Shard.Positions...)
		pos = append(pos, res.Shard.Positions...)
		res.Shard.Positions = pos
	}
}

// tracker accumulates the committed prefix of a live run so
// Session.Checkpoint can snapshot it mid-flight. Engine events are
// staged in a buffer and folded into the published state only at
// progress boundaries — a position's classification, sequence and
// credit events all precede its progress event — so a snapshot never
// observes a torn position.
type tracker struct {
	c         *Circuit
	cfg       Config
	detectIdx map[faults.Delay]int // shard mode only

	buf []core.Event // staged since the last progress event; Run goroutine only

	mu       sync.Mutex
	cursor   int // last committed position boundary; -1 until the first
	status   []Status
	seqs     []*Sequence
	order    []int // fault index of each committed position, in commit order
	patterns int
	valFail  int
	names    []string // lazily resolved fault names
}

func newTracker(c *Circuit, cfg Config) *tracker {
	n := c.Faults()
	t := &tracker{c: c, cfg: cfg, cursor: -1, status: make([]Status, n), seqs: make([]*Sequence, n)}
	for i := range t.status {
		t.status[i] = StatusPending
	}
	if cfg.Shards > 0 {
		all := faults.AllDelay(c.c)
		t.detectIdx = make(map[faults.Delay]int, len(all))
		for i, f := range all {
			t.detectIdx[f] = i
		}
	}
	return t
}

// observe consumes one engine event on the Run goroutine.
func (t *tracker) observe(ev core.Event) {
	if ev.Kind != core.EventProgress {
		t.buf = append(t.buf, ev)
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range t.buf {
		switch e.Kind {
		case core.EventFaultClassified:
			t.status[e.Index] = statusOf(e.Status)
			t.valFail += e.ValFail
			t.order = append(t.order, e.Index)
		case core.EventSequenceGenerated:
			t.seqs[e.Index] = sequenceOf(t.c.c, e.Seq, t.detectIdx)
			t.patterns += e.Seq.Len()
		case core.EventCreditApplied:
			t.status[e.Index] = StatusTestedBySim
		}
	}
	t.buf = t.buf[:0]
	t.cursor = ev.Done
}

// snapshot builds the committed-prefix Result as of the last progress
// boundary. startCursor is the position the run began at (a resumed or
// shard run starts mid-permutation); it is the cursor when no position
// has committed yet.
func (t *tracker) snapshot(startCursor int) *Result {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.names == nil {
		all := faults.AllDelay(t.c.c)
		t.names = make([]string, len(all))
		for i, f := range all {
			t.names[i] = f.Name(t.c.c)
		}
	}
	cursor := t.cursor
	if cursor < 0 {
		cursor = startCursor
	}
	alg, _ := t.cfg.algebra() // cfg was validated at session build
	h, _ := order.Parse(t.cfg.Order)
	res := &Result{
		Circuit: t.c.c.Name, Algebra: alg.Name(), Order: h.Name(),
		Seed: t.cfg.Seed, Workers: t.cfg.Workers,
		ValidationFailures: t.valFail,
		Patterns:           t.patterns,
		Faults:             make([]FaultResult, len(t.status)),
	}
	for i, st := range t.status {
		res.Faults[i] = FaultResult{Fault: t.names[i], Status: st, Seq: t.seqs[i]}
		switch st {
		case StatusTested:
			res.Tested++
			res.Explicit++
		case StatusTestedBySim:
			res.Tested++
		case StatusUntestable:
			res.Untestable++
		case StatusAborted:
			res.Aborted++
		default:
			res.Pending++
		}
	}
	res.Cursor = cursor
	if t.cfg.Shards > 0 {
		total := effTargets(len(t.status), t.cfg)
		lo, hi := shardRange(total, t.cfg.Shards, t.cfg.ShardIndex)
		key, _ := t.cfg.runKey()
		res.Shard = &ShardInfo{
			Shards: t.cfg.Shards, Index: t.cfg.ShardIndex,
			Lo: lo, Hi: hi, Total: total, Cursor: cursor,
			ConfigKey: key,
			Positions: append([]int(nil), t.order...),
		}
	}
	return res
}
