package telemetry

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"djstar/internal/obs"
)

func TestRecorderEventRingWrapsOldestFirst(t *testing.T) {
	c := NewCollector(Config{})
	r := NewRecorder(c, RecorderConfig{Events: 4})
	for i := uint64(1); i <= 6; i++ {
		r.AddEvent(i, "fault", "n")
	}
	events := r.snapshot()
	if len(events) != 4 {
		t.Fatalf("retained %d events, want ring depth 4", len(events))
	}
	for i, ev := range events {
		if want := uint64(3 + i); ev.Cycle != want {
			t.Fatalf("event %d cycle = %d, want %d (oldest first)", i, ev.Cycle, want)
		}
	}
}

func TestRecorderTriggerDumpAndLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := NewCollector(Config{Strategy: "busy", Session: "0"})
	c.RecordCycle(100, 1_000_000, 500_000, false, 0)
	r := NewRecorder(c, RecorderConfig{Dir: dir})
	r.SetBundleFiller(func(inc *Incident) {
		inc.Threads = 4
		inc.Graph = GraphInfo{
			Names: []string{"a", "b"},
			Order: []int32{0, 1},
			Preds: [][]int32{nil, {0}},
		}
		inc.NodeMeansUS = []float64{10, 20}
		ps := obs.CriticalPath(inc.Graph.Plan(), inc.NodeMeansUS)
		inc.CritPath = &ps
	})
	r.AddEvent(41, "fault", "b")
	r.Trigger(42, TriggerQuarantine)
	r.Flush()

	paths, _ := filepath.Glob(filepath.Join(dir, "incident-*.json"))
	if len(paths) != 1 {
		t.Fatalf("dumped %d bundles, want 1: %v", len(paths), paths)
	}
	inc, err := LoadIncident(paths[0])
	if err != nil {
		t.Fatalf("LoadIncident: %v", err)
	}
	if inc.Reason != TriggerQuarantine || inc.Cycle != 42 {
		t.Fatalf("bundle reason/cycle = %s/%d, want quarantine/42", inc.Reason, inc.Cycle)
	}
	if inc.Strategy != "busy" || inc.Threads != 4 {
		t.Fatalf("bundle identity = %s/%d threads, want busy/4", inc.Strategy, inc.Threads)
	}
	// The trigger itself is retained as the newest event.
	if n := len(inc.Events); n != 2 || inc.Events[n-1].Kind != TriggerQuarantine {
		t.Fatalf("bundle events = %+v, want fault then quarantine trigger", inc.Events)
	}
	if inc.Totals.Incidents != 1 {
		t.Fatalf("incidents total = %d, want 1", inc.Totals.Incidents)
	}
	// Replay reproduces the live critical path exactly.
	ps, err := inc.Replay()
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if ps.LengthUS != inc.CritPath.LengthUS || len(ps.Nodes) != len(inc.CritPath.Nodes) {
		t.Fatalf("replay = %v µs / %d nodes, live = %v µs / %d nodes",
			ps.LengthUS, len(ps.Nodes), inc.CritPath.LengthUS, len(inc.CritPath.Nodes))
	}
}

func TestRecorderCooldownSuppressesDumpStorm(t *testing.T) {
	dir := t.TempDir()
	c := NewCollector(Config{})
	r := NewRecorder(c, RecorderConfig{Dir: dir, CooldownSeconds: 60})
	for i := uint64(0); i < 50; i++ {
		r.Trigger(i, TriggerBudget)
	}
	r.Flush()
	paths, _ := filepath.Glob(filepath.Join(dir, "incident-*.json"))
	if len(paths) != 1 {
		t.Fatalf("dumped %d bundles during storm, want 1 (cooldown)", len(paths))
	}
	// Every trigger is still counted and retained even when not dumped.
	if got := c.Totals().Incidents; got != 50 {
		t.Fatalf("incidents total = %d, want 50", got)
	}
}

func TestRecorderNoDirNeverDumps(t *testing.T) {
	c := NewCollector(Config{})
	r := NewRecorder(c, RecorderConfig{})
	r.Trigger(1, TriggerStall)
	r.Flush()
	if got := c.Totals().Incidents; got != 1 {
		t.Fatalf("incidents total = %d, want 1", got)
	}
}

func TestLoadIncidentRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "incident-bad.json")
	if err := os.WriteFile(path, []byte(`{"schema_version": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadIncident(path); err == nil || !strings.Contains(err.Error(), "schema version") {
		t.Fatalf("LoadIncident on future schema: err = %v, want schema mismatch", err)
	}
}
