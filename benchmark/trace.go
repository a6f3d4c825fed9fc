package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Spans of one fault (or one service
// job) share a trace id; parent indexes the enclosing span, -1 for a
// root.
type span struct {
	name       string
	trace      int64
	parent     int32
	start, end time.Duration // since the recorder's epoch
}

// recorder keeps the spans of one traced run in memory; they are written
// out only when the run ends.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index for end.
func (r *recorder) begin(name string, trace int64, parent int32) int32 {
	r.spans = append(r.spans, span{name: name, trace: trace, parent: parent, start: time.Since(r.epoch)})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(i int32) { r.spans[i].end = time.Since(r.epoch) }

// total returns the summed duration of every span with the name.
func (r *recorder) total(name string) time.Duration {
	var d time.Duration
	for _, s := range r.spans {
		if s.name == name {
			d += s.end - s.start
		}
	}
	return d
}

// chromeEvent is one complete event of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto); each trace id is one thread row.
func (r *recorder) writeChrome(path string) error {
	events := make([]chromeEvent, len(r.spans))
	for i, s := range r.spans {
		events[i] = chromeEvent{
			Name: s.name, Ph: "X", PID: 1, TID: s.trace,
			TS:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.end-s.start) / float64(time.Microsecond),
		}
		if s.parent >= 0 {
			events[i].Args = map[string]any{"parent": r.spans[s.parent].name}
		}
	}
	doc, err := json.Marshal(struct {
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		TraceEvents     []chromeEvent `json:"traceEvents"`
	}{"ms", events})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(doc, '\n'), 0o644)
}
