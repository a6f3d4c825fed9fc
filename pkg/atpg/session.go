package atpg

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"fogbuster/internal/compact"
	"fogbuster/internal/core"
)

// ErrAlreadyRun is returned by Session.Run when the session was already
// executed; sessions are single-use.
var ErrAlreadyRun = errors.New("atpg: session already run")

// Session is one prepared ATPG run: a validated Config bound to a
// Circuit. Configure streaming with Events or OnEvent before calling
// Run; a Session is single-use.
type Session struct {
	circuit *Circuit
	cfg     Config
	eng     *core.Engine
	// compactOpts configures the post-run compaction under Config.Compact.
	compactOpts compact.Options

	started atomic.Bool
	onEvent func(Event)
	events  chan Event
	// ctx is the Run context, stored so the event bridge can abandon
	// channel sends when the run is cancelled; it is written once at the
	// start of Run, before any event can fire, and read only from the
	// merge loop (the Run goroutine).
	ctx context.Context

	// prefix is the committed prefix of the checkpoint a resumed session
	// continues from (nil for a fresh run); Run and Checkpoint stitch it
	// into their Results.
	track *tracker // live checkpoint state; nil under Config.Compact
	// startCursor is the targeting position the engine starts at: the
	// shard window's Lo, the checkpoint's cursor on resume, 0 otherwise.
	startCursor int
	prefix      *Result

	mu    sync.Mutex
	final *Result // the Result Run returned, once it has
}

// New validates the configuration and prepares a session for the
// circuit. All configuration mistakes — unknown algebra or order names,
// negative budgets — surface here as errors; nothing in the public API
// panics on bad input. When Config.Shards is set the session runs one
// shard of a distributed run (see MergeResults); Resume builds sessions
// that continue from a Checkpoint.
func New(c *Circuit, cfg Config) (*Session, error) {
	if c == nil || c.c == nil {
		return nil, errors.New("atpg: nil circuit")
	}
	return newSession(c, cfg, nil, nil)
}

// newSession is the shared constructor behind New and Resume; ckpt,
// when non-nil, is a validated checkpoint the session continues from.
// patch, when non-nil, edits the engine options translated from cfg.
// Only tests pass one: it is their route to the reference oracles on
// core.Options (FullEval, ScalarCredit, ScalarSearch), which Config
// deliberately does not carry.
func newSession(c *Circuit, cfg Config, ckpt *Checkpoint, patch func(*core.Options)) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	opts, err := cfg.engineOptions()
	if err != nil {
		return nil, err
	}
	if patch != nil {
		patch(&opts)
	}
	s := &Session{
		circuit:     c,
		cfg:         cfg,
		compactOpts: compact.Options{Algebra: opts.Algebra, Seed: cfg.Seed, FullEval: opts.FullEval},
	}
	if cfg.Shards > 0 {
		lo, hi := shardRange(effTargets(c.Faults(), cfg), cfg.Shards, cfg.ShardIndex)
		opts.ShardLo, opts.ShardHi = lo, hi
		s.startCursor = lo
	}
	if ckpt != nil {
		// The prefix [0 or shard Lo, cursor) is committed: preload its
		// statuses and start the engine window at the cursor.
		opts.ShardLo = ckpt.Cursor
		opts.Preload = preloadOf(ckpt.Result)
		s.startCursor = ckpt.Cursor
		s.prefix = ckpt.Result
	}
	if !cfg.Compact {
		s.track = newTracker(c, cfg)
	}
	opts.OnEvent = s.emit
	// Reuse the circuit's memoized topology so concurrent sessions over
	// one Circuit share a single levelized CSR view.
	opts.Topology = c.topology()
	eng, err := core.New(c.c, opts)
	if err != nil {
		// Unreachable after Validate; surfaced defensively.
		return nil, fmt.Errorf("atpg: %w", err)
	}
	s.eng = eng
	return s, nil
}

// OnEvent registers a callback receiving every streaming event
// synchronously on the Run goroutine, in commit order. It must be called
// before Run and must not call back into the session.
func (s *Session) OnEvent(fn func(Event)) { s.onEvent = fn }

// Events returns the lossless streaming event channel. It must be
// called before Run; the channel is closed when Run returns its Result,
// so consumers can simply range over it.
//
// Contract: the stream is lossless, so the engine BLOCKS on a full
// buffer. A consumer that stops draining the channel mid-run therefore
// wedges the merge loop until the Run context is cancelled — pending
// sends are abandoned only once ctx.Done() fires, after which Run
// returns the usual coherent committed-prefix partial Result. Consumers
// that cannot guarantee timely draining (a network stream feeding a
// slow client, say) must either drain into their own buffer on a
// dedicated goroutine, as the atpgd service does with its bounded event
// log, or cancel the run when they give up.
func (s *Session) Events() <-chan Event {
	if s.events == nil {
		s.events = make(chan Event, 256)
	}
	return s.events
}

// emit bridges one engine event to the registered consumers. Without a
// consumer it returns before converting (name resolution and frame
// strings would otherwise burn on every commit of a plain Run).
func (s *Session) emit(ev core.Event) {
	if s.track != nil {
		s.track.observe(ev)
	}
	if s.onEvent == nil && s.events == nil {
		return
	}
	out := eventOf(s.circuit.c, ev)
	if s.onEvent != nil {
		s.onEvent(out)
	}
	if s.events != nil {
		select {
		case s.events <- out:
		case <-s.ctx.Done():
			// The consumer may have stopped draining after cancellation;
			// the merge loop stops committing momentarily.
		}
	}
}

// Run executes the full ATPG flow and returns the result. The context
// governs cancellation: when it is cancelled or times out, Run stops the
// workers promptly and returns the partial Result with Result.Err ==
// ctx.Err() (also returned as the error); every unprocessed fault is
// left StatusPending, and the processed prefix is bit-identical to the
// same prefix of an uncancelled run. A complete run returns a nil error.
//
// When Config.Compact is set and the run completes, the test set is
// compacted before the Result is built; a cancelled run is never
// compacted. The Events channel, if requested, is closed before Run
// returns.
func (s *Session) Run(ctx context.Context) (*Result, error) {
	if !s.started.CompareAndSwap(false, true) {
		return nil, ErrAlreadyRun
	}
	if s.events != nil {
		defer close(s.events)
	}
	s.ctx = ctx
	sum, runErr := s.eng.RunContext(ctx)
	if s.cfg.Compact && runErr == nil {
		if st := compact.Apply(s.circuit.c, sum, s.compactOpts); !st.Complete {
			return nil, errors.New("atpg: compaction refused: recorded detection sets are absent or incomplete")
		}
	}
	res := resultOf(s.circuit.c, s.cfg, sum, runErr)
	if s.prefix != nil {
		stitchPrefix(res, s.prefix)
	}
	s.mu.Lock()
	s.final = res
	s.mu.Unlock()
	return res, runErr
}

// Checkpoint snapshots the run's committed prefix as a resumable
// Checkpoint. It is safe to call from any goroutine at any time: before
// Run (an empty prefix), concurrently with it (the prefix as of the
// last committed position — never a torn, partially committed state),
// or after it (the final Result, complete or cancelled). Compacted
// sessions cannot be checkpointed.
func (s *Session) Checkpoint() (*Checkpoint, error) {
	if s.cfg.Compact {
		return nil, errors.New("atpg: cannot checkpoint a compacting session (compaction rewrites committed sequences)")
	}
	s.mu.Lock()
	final := s.final
	s.mu.Unlock()
	if final != nil {
		return CheckpointOf(final, s.circuit.ContentHash(), s.cfg)
	}
	res := s.track.snapshot(s.startCursor)
	if s.prefix != nil {
		stitchPrefix(res, s.prefix)
	}
	key, err := s.cfg.CacheKey()
	if err != nil {
		return nil, err // unreachable: cfg was validated at session build
	}
	// snapshot records the live cursor on the Result directly; the
	// inference CheckpointOf applies to finished Results does not see an
	// in-flight one.
	return &Checkpoint{CircuitHash: s.circuit.ContentHash(), ConfigKey: key, Cursor: res.Cursor, Result: res}, nil
}
