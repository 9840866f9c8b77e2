package main

import (
	"encoding/json"
	"os"
	"sync/atomic"
	"time"
)

// span is one timed interval recorded by the benchmark's own code
// around a call into a layer. Parent is the index of the enclosing span
// (-1 for a root); Arg carries the count the span covers (iterations of
// a probe loop, the cycle number, the request number).
type span struct {
	Name   string
	Lane   int32 // trace_event tid: 0 = main goroutine, 1.. = drivers/connections
	Parent int32
	Start  int64 // ns since tracer start
	Dur    int64 // ns
	Arg    int64
}

// tracer keeps spans in a preallocated buffer and writes them out once,
// at exit. A nil tracer records nothing, so untraced runs pay one nil
// check per call site. Slots are handed out with one atomic add, so
// connection goroutines may record concurrently; a full buffer drops new
// spans and counts them.
type tracer struct {
	t0      time.Time
	spans   []span
	n       atomic.Int32
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, capacity)}
}

// now returns nanoseconds since the tracer started.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// add records a finished span and returns its index (-1 when dropped or
// when tracing is off).
func (t *tracer) add(name string, lane, parent int32, start, dur, arg int64) int32 {
	if t == nil {
		return -1
	}
	i := t.n.Add(1) - 1
	if int(i) >= len(t.spans) {
		t.dropped.Add(1)
		return -1
	}
	t.spans[i] = span{Name: name, Lane: lane, Parent: parent, Start: start, Dur: dur, Arg: arg}
	return i
}

// begin opens a span on the main lane; the returned func closes it with
// the count it covered. Children recorded in between name the returned
// index as their parent.
func (t *tracer) begin(name string, parent int32) (int32, func(arg int64)) {
	if t == nil {
		return -1, func(int64) {}
	}
	start := t.now()
	i := t.add(name, 0, parent, start, 0, 0)
	return i, func(arg int64) {
		if i >= 0 {
			t.spans[i].Dur = t.now() - start
			t.spans[i].Arg = arg
		}
	}
}

// recorded returns the spans written so far.
func (t *tracer) recorded() []span {
	if t == nil {
		return nil
	}
	return t.spans[:min(int(t.n.Load()), len(t.spans))]
}

// selfTimes returns, per span, its duration minus the part covered by
// its direct children — the layer's own time.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.Dur
		if s.Parent >= 0 {
			self[s.Parent] -= s.Dur
		}
	}
	return self
}

// Chrome trace_event JSON, the dialect obs.WriteChromeTrace emits: one
// complete ("X") event per span, timestamps in microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// write stores the spans as a Chrome trace at path.
func (t *tracer) write(path string) error {
	spans := t.recorded()
	self := selfTimes(spans)
	doc := chromeTrace{TraceEvents: make([]chromeEvent, 0, len(spans)), DisplayTimeUnit: "ms"}
	for i, s := range spans {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: s.Name, Cat: "bench", Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.Dur) / 1e3,
			PID: 1, TID: int(s.Lane),
			Args: map[string]any{"id": i, "parent": s.Parent, "n": s.Arg, "self_us": float64(self[i]) / 1e3},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
