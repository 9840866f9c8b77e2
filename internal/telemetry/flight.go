package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"djstar/internal/graph"
	"djstar/internal/obs"
)

// Flight recorder: a black box that continuously retains the recent
// fault/governor/stall/miss events and, when something goes wrong, dumps
// them with the collector's rolling time series and whatever the engine
// adds at dump time (graph, node means, sampled schedule realizations)
// as one self-contained JSON incident bundle for offline replay
// (djanalyze -incident). The retention path is preallocated and cheap;
// the dump runs on its own goroutine, never on the audio path.

// Trigger reasons.
const (
	TriggerBudget     = "deadline-budget" // rolling miss window blew its budget
	TriggerQuarantine = "quarantine"      // a node was quarantined
	TriggerStall      = "stall"           // the watchdog named a wedged node
)

// Event is one retained occurrence in the recorder's event ring.
type Event struct {
	// Cycle is the engine cycle the event belongs to.
	Cycle uint64 `json:"cycle"`
	// Kind is "fault", "quarantine", "stall", "governor" or a trigger
	// reason.
	Kind string `json:"kind"`
	// Detail names the node / transition involved.
	Detail string `json:"detail"`
}

// GraphInfo is the task graph's structure, embedded in the bundle so the
// offline analyzer can rebuild the dependency DAG without the process
// that produced it.
type GraphInfo struct {
	Names []string  `json:"names"`
	Order []int32   `json:"order"`
	Preds [][]int32 `json:"preds"`
}

// Plan reconstructs a minimal executable-shaped plan (Run stubs only)
// sufficient for obs.CriticalPath.
func (g GraphInfo) Plan() *graph.Plan {
	return graph.PlanFromLists(g.Names, g.Order, g.Preds)
}

// IncidentSchemaVersion identifies the bundle wire shape.
const IncidentSchemaVersion = 1

// Incident is one self-contained bundle: what happened, the engine's
// identity and live measurements at dump time, the recent past, and the
// graph structure + node means needed to replay the analysis offline.
type Incident struct {
	SchemaVersion int    `json:"schema_version"`
	Reason        string `json:"reason"`
	UnixNanos     int64  `json:"unix_nanos"`
	Cycle         uint64 `json:"cycle"`

	Strategy string `json:"strategy"`
	Threads  int    `json:"threads"`
	Session  string `json:"session"`

	SLO    SLOStatus `json:"slo"`
	Totals Totals    `json:"totals"`

	// Events is the recorder's event ring, oldest first.
	Events []Event `json:"events"`
	// Traces are the observability collector's sampled schedule
	// realizations at dump time, oldest first, indexed by Graph's node
	// IDs (stamped by the bundle filler).
	Traces []obs.CycleTrace `json:"traces"`
	// Series is the recent per-second time series, oldest first.
	Series []RingSlot `json:"series"`

	// Graph, NodeMeansUS and CritPath make the bundle replayable: the
	// critical path recomputed offline from Graph + NodeMeansUS must
	// reproduce CritPath exactly.
	Graph       GraphInfo     `json:"graph"`
	NodeMeansUS []float64     `json:"node_means_us"`
	CritPath    *obs.PathStat `json:"crit_path,omitempty"`
}

// RecorderConfig tunes a flight recorder.
type RecorderConfig struct {
	// Dir receives incident bundles; empty disables dumping (triggers
	// are still counted and retained as events).
	Dir string
	// Events is the event ring depth (default 64).
	Events int
	// CooldownSeconds is the minimum spacing between dumps (default 10)
	// so an incident storm produces one bundle, not thousands.
	CooldownSeconds int
	// SeriesSeconds bounds the bundled time series (default 120).
	SeriesSeconds int
	// OnDump, when set, is notified after a bundle is written (called on
	// the dump goroutine).
	OnDump func(path string, inc *Incident)
}

func (c RecorderConfig) withDefaults() RecorderConfig {
	if c.Events <= 0 {
		c.Events = 64
	}
	if c.CooldownSeconds <= 0 {
		c.CooldownSeconds = 10
	}
	if c.SeriesSeconds <= 0 {
		c.SeriesSeconds = 120
	}
	return c
}

// Recorder retains recent events and dumps incident bundles. AddEvent
// may run on the cycle, worker or watchdog threads.
type Recorder struct {
	cfg Config // collector labels, copied for the bundle
	rc  RecorderConfig
	col *Collector

	mu      sync.Mutex
	events  []Event
	evPos   int
	evLen   int
	lastDmp atomic.Int64 // unix seconds of the last dump
	dumpSeq atomic.Uint64
	pending sync.WaitGroup

	// fill lets the engine stamp its side of the bundle (graph
	// structure, node means, critical path, traces, strategy identity)
	// at dump time; set once at construction wiring.
	fill func(*Incident)
}

// NewRecorder builds a flight recorder bound to a collector.
func NewRecorder(col *Collector, rc RecorderConfig) *Recorder {
	rc = rc.withDefaults()
	return &Recorder{
		cfg:    col.cfg,
		rc:     rc,
		col:    col,
		events: make([]Event, rc.Events),
	}
}

// SetBundleFiller installs the engine-side bundle stamp. Call before the
// first cycle.
func (r *Recorder) SetBundleFiller(fill func(*Incident)) { r.fill = fill }

// AddEvent retains one occurrence (any thread; allocation-free).
func (r *Recorder) AddEvent(cycle uint64, kind, detail string) {
	r.mu.Lock()
	r.events[r.evPos] = Event{Cycle: cycle, Kind: kind, Detail: detail}
	r.evPos = (r.evPos + 1) % len(r.events)
	if r.evLen < len(r.events) {
		r.evLen++
	}
	r.mu.Unlock()
}

// Trigger fires the recorder: the trigger is retained as an event and
// counted, and — when a dump directory is configured and the cooldown
// has passed — a bundle is assembled and written on a fresh goroutine,
// off the audio path.
func (r *Recorder) Trigger(cycle uint64, reason string) {
	r.AddEvent(cycle, reason, "")
	r.col.RecordIncident()
	if r.rc.Dir == "" {
		return
	}
	now := time.Now().Unix()
	last := r.lastDmp.Load()
	if now-last < int64(r.rc.CooldownSeconds) || !r.lastDmp.CompareAndSwap(last, now) {
		return
	}
	seq := r.dumpSeq.Add(1)
	r.pending.Add(1)
	go func() {
		defer r.pending.Done()
		r.dump(cycle, reason, seq)
	}()
}

// Flush waits for in-flight dumps to finish (shutdown and tests).
func (r *Recorder) Flush() { r.pending.Wait() }

// snapshot copies the retained events, oldest first.
func (r *Recorder) snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	events := make([]Event, 0, r.evLen)
	for i := 0; i < r.evLen; i++ {
		events = append(events, r.events[(r.evPos-r.evLen+i+len(r.events))%len(r.events)])
	}
	return events
}

// dump assembles and writes one bundle.
func (r *Recorder) dump(cycle uint64, reason string, seq uint64) {
	inc := &Incident{
		SchemaVersion: IncidentSchemaVersion,
		Reason:        reason,
		UnixNanos:     time.Now().UnixNano(),
		Cycle:         cycle,
		Strategy:      r.cfg.Strategy,
		Session:       r.cfg.Session,
		SLO:           r.col.SLO(),
		Totals:        r.col.Totals(),
		Series:        r.col.Series(r.rc.SeriesSeconds),
		Events:        r.snapshot(),
		Traces:        []obs.CycleTrace{},
	}
	if r.fill != nil {
		r.fill(inc)
	}
	path := filepath.Join(r.rc.Dir, fmt.Sprintf("incident-%s-%d.json", reason, seq))
	if err := writeIncident(path, inc); err != nil {
		return
	}
	if r.rc.OnDump != nil {
		r.rc.OnDump(path, inc)
	}
}

func writeIncident(path string, inc *Incident) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(inc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadIncident reads a bundle from disk.
func LoadIncident(path string) (*Incident, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var inc Incident
	if err := json.Unmarshal(data, &inc); err != nil {
		return nil, fmt.Errorf("telemetry: %s: %w", path, err)
	}
	if inc.SchemaVersion != IncidentSchemaVersion {
		return nil, fmt.Errorf("telemetry: %s: schema version %d, want %d",
			path, inc.SchemaVersion, IncidentSchemaVersion)
	}
	return &inc, nil
}

// Replay recomputes the critical path offline from the bundle's graph
// structure and node means — the same computation the live engine
// reported into CritPath. A mismatch means the bundle is internally
// inconsistent.
func (inc *Incident) Replay() (obs.PathStat, error) {
	if len(inc.Graph.Names) == 0 || len(inc.NodeMeansUS) != len(inc.Graph.Names) {
		return obs.PathStat{}, fmt.Errorf("telemetry: bundle has no replayable graph (%d names, %d means)",
			len(inc.Graph.Names), len(inc.NodeMeansUS))
	}
	return obs.CriticalPath(inc.Graph.Plan(), inc.NodeMeansUS), nil
}
