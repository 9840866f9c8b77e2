package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"djstar/internal/graph"
)

// Incident bundles: when the flight recorder fires (Sink.Event with a
// dumping kind, or the SLO budget crossing in Sink.RecordCycle) the
// sink's recent events, rolling time series and counters are written
// with whatever the engine adds at dump time (graph, node means, sampled
// schedule realizations) as one self-contained JSON file for offline
// replay (djanalyze -incident). The dump runs on its own goroutine,
// never on the audio path.

// GraphInfo is the task graph's structure, embedded in the bundle so the
// offline analyzer can rebuild the dependency DAG without the process
// that produced it.
type GraphInfo struct {
	Names []string  `json:"names"`
	Order []int32   `json:"order"`
	Preds [][]int32 `json:"preds"`
}

// Plan reconstructs a minimal executable-shaped plan (Run stubs only)
// sufficient for CriticalPath.
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
	Traces []CycleTrace `json:"traces"`
	// Series is the recent per-second time series, oldest first.
	Series []RingSlot `json:"series"`

	// Graph, NodeMeansUS and CritPath make the bundle replayable: the
	// critical path recomputed offline from Graph + NodeMeansUS must
	// reproduce CritPath exactly.
	Graph       GraphInfo `json:"graph"`
	NodeMeansUS []float64 `json:"node_means_us"`
	CritPath    *PathStat `json:"crit_path,omitempty"`
}

// dump assembles and writes one bundle.
func (s *Sink) dump(cycle uint64, reason string, seq uint64) {
	sc := s.scrape(bundleSeriesSec)
	inc := &Incident{
		SchemaVersion: IncidentSchemaVersion,
		Reason:        reason,
		UnixNanos:     time.Now().UnixNano(),
		Cycle:         cycle,
		Strategy:      s.cfg.Strategy,
		Session:       s.cfg.Session,
		SLO:           sc.slo,
		Totals:        sc.tot,
		Series:        sc.series,
		Events:        sc.events,
		Traces:        []CycleTrace{},
	}
	if s.cfg.Fill != nil {
		s.cfg.Fill(inc)
	}
	path := filepath.Join(s.cfg.IncidentDir, fmt.Sprintf("incident-%s-%d.json", reason, seq))
	if err := writeIncident(path, inc); err != nil {
		return
	}
	if s.cfg.OnIncident != nil {
		s.cfg.OnIncident(path, inc)
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
		return nil, fmt.Errorf("obs: %s: %w", path, err)
	}
	if inc.SchemaVersion != IncidentSchemaVersion {
		return nil, fmt.Errorf("obs: %s: schema version %d, want %d",
			path, inc.SchemaVersion, IncidentSchemaVersion)
	}
	return &inc, nil
}

// Replay recomputes the critical path offline from the bundle's graph
// structure and node means — the same computation the live engine
// reported into CritPath. A mismatch means the bundle is internally
// inconsistent.
func (inc *Incident) Replay() (PathStat, error) {
	if len(inc.Graph.Names) == 0 || len(inc.NodeMeansUS) != len(inc.Graph.Names) {
		return PathStat{}, fmt.Errorf("obs: bundle has no replayable graph (%d names, %d means)",
			len(inc.Graph.Names), len(inc.NodeMeansUS))
	}
	return CriticalPath(inc.Graph.Plan(), inc.NodeMeansUS), nil
}
