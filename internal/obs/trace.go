package obs

import (
	"encoding/json"
	"io"

	"djstar/internal/graph"
	"djstar/internal/stats"
)

// CycleTrace is one sampled schedule realization: for every node, the
// worker that ran it and its execution window relative to the cycle
// start. It is the collector's equivalent of the paper's Fig. 11.
type CycleTrace struct {
	// Cycle is the collector cycle count at capture (1-based).
	Cycle uint64 `json:"cycle"`
	// BaseNS is the cycle-start timestamp on the scheduler clock.
	BaseNS int64 `json:"base_ns"`
	// Workers is the scheduler's worker count.
	Workers int `json:"workers"`
	// Worker[i] ran node i this cycle (-1 = not executed).
	Worker []int32 `json:"worker"`
	// StartNS and EndNS are node i's window relative to BaseNS.
	StartNS []int64 `json:"start_ns"`
	EndNS   []int64 `json:"end_ns"`
}

// MakespanNS returns the latest node end in the realization.
func (t *CycleTrace) MakespanNS() int64 {
	var m int64
	for i, w := range t.Worker {
		if w >= 0 && t.EndNS[i] > m {
			m = t.EndNS[i]
		}
	}
	return m
}

// GanttTasks converts the realization into renderable tasks (times in
// microseconds) for stats.RenderGantt — a textual Fig. 11.
func (t *CycleTrace) GanttTasks(names []string) []stats.GanttTask {
	out := make([]stats.GanttTask, 0, len(t.Worker))
	for i, w := range t.Worker {
		if w < 0 {
			continue
		}
		out = append(out, stats.GanttTask{
			Name:   names[i],
			Worker: int(w),
			Start:  float64(t.StartNS[i]) / 1e3,
			End:    float64(t.EndNS[i]) / 1e3,
		})
	}
	return out
}

// Chrome trace_event JSON (the "JSON Array Format" with metadata):
// loadable in chrome://tracing and https://ui.perfetto.dev. One process,
// one thread track per worker, one complete ("X") event per node
// execution. Timestamps are microseconds; successive sampled cycles keep
// their true wall offsets, so the inter-cycle gaps are visible.

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace exports sampled realizations as Chrome trace_event
// JSON. Traces must be in capture order (Collector.Traces delivers
// that); an empty slice still produces a valid, loadable document.
func WriteChromeTrace(w io.Writer, p *graph.Plan, traces []CycleTrace) error {
	doc := chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	workers := 0
	for i := range traces {
		if traces[i].Workers > workers {
			workers = traces[i].Workers
		}
	}
	for tid := 0; tid < workers; tid++ {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "thread_name",
			Ph:   "M",
			PID:  1,
			TID:  tid,
			Args: map[string]any{"name": workerLabel(tid)},
		})
	}
	var origin int64
	if len(traces) > 0 {
		origin = traces[0].BaseNS
	}
	for ti := range traces {
		t := &traces[ti]
		offsetNS := t.BaseNS - origin
		for id, wk := range t.Worker {
			if wk < 0 {
				continue
			}
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: p.Names[id],
				Cat:  "node",
				Ph:   "X",
				TS:   float64(offsetNS+t.StartNS[id]) / 1e3,
				Dur:  float64(t.EndNS[id]-t.StartNS[id]) / 1e3,
				PID:  1,
				TID:  int(wk),
				Args: map[string]any{"cycle": t.Cycle, "node": id},
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

func workerLabel(w int) string {
	const digits = "0123456789"
	if w < 10 {
		return "worker " + string(digits[w])
	}
	return "worker " + string(digits[w/10]) + string(digits[w%10])
}
