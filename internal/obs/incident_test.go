package obs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSinkEventRingWrapsOldestFirst(t *testing.T) {
	s := NewSink(SinkConfig{})
	for i := uint64(1); i <= eventRing+2; i++ {
		s.Event(Fault, i, "n")
	}
	events := s.scrape(1).events
	if len(events) != eventRing {
		t.Fatalf("retained %d events, want ring depth %d", len(events), eventRing)
	}
	for i, ev := range events {
		if want := uint64(3 + i); ev.Cycle != want {
			t.Fatalf("event %d cycle = %d, want %d (oldest first)", i, ev.Cycle, want)
		}
	}
}

func TestSinkDumpAndLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := NewSink(SinkConfig{
		Strategy:    "busy",
		Session:     "0",
		IncidentDir: dir,
		Fill: func(inc *Incident) {
			inc.Threads = 4
			inc.Graph = GraphInfo{
				Names: []string{"a", "b"},
				Order: []int32{0, 1},
				Preds: [][]int32{nil, {0}},
			}
			inc.NodeMeansUS = []float64{10, 20}
			ps := CriticalPath(inc.Graph.Plan(), inc.NodeMeansUS)
			inc.CritPath = &ps
		},
	})
	s.RecordCycle(1, 100, 1_000_000, 500_000, false, 0)
	s.Event(Fault, 41, "b")
	s.Event(Quarantine, 42, "b")
	s.Flush()

	paths, _ := filepath.Glob(filepath.Join(dir, "incident-*.json"))
	if len(paths) != 1 {
		t.Fatalf("dumped %d bundles, want 1: %v", len(paths), paths)
	}
	inc, err := LoadIncident(paths[0])
	if err != nil {
		t.Fatalf("LoadIncident: %v", err)
	}
	if inc.Reason != Quarantine.String() || inc.Cycle != 42 {
		t.Fatalf("bundle reason/cycle = %s/%d, want quarantine/42", inc.Reason, inc.Cycle)
	}
	if inc.Strategy != "busy" || inc.Threads != 4 {
		t.Fatalf("bundle identity = %s/%d threads, want busy/4", inc.Strategy, inc.Threads)
	}
	// The trigger itself is retained as the newest event.
	if n := len(inc.Events); n != 3 || inc.Events[n-1] != (Event{Cycle: 42, Kind: "quarantine"}) {
		t.Fatalf("bundle events = %+v, want fault, quarantine, quarantine trigger", inc.Events)
	}
	if inc.Totals.Incidents != 1 || len(inc.Series) != 1 {
		t.Fatalf("incidents total = %d, series = %d s; want 1 and 1", inc.Totals.Incidents, len(inc.Series))
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

func TestSinkCooldownSuppressesDumpStorm(t *testing.T) {
	dir := t.TempDir()
	s := NewSink(SinkConfig{IncidentDir: dir})
	for i := uint64(0); i < 50; i++ {
		s.Event(Stall, i, "n")
	}
	s.Flush()
	paths, _ := filepath.Glob(filepath.Join(dir, "incident-*.json"))
	if len(paths) != 1 {
		t.Fatalf("dumped %d bundles during storm, want 1 (cooldown)", len(paths))
	}
	// Every trigger is still counted and retained even when not dumped.
	if got := s.Totals().Incidents; got != 50 {
		t.Fatalf("incidents total = %d, want 50", got)
	}
}

// TestSinkCooldownCountsRecordedSeconds: the dump cooldown counts in the
// Unix seconds RecordCycle is handed, so two budget crossings 5 s apart
// write one bundle and 11 s apart write two — with no clock read.
func TestSinkCooldownCountsRecordedSeconds(t *testing.T) {
	for _, tc := range []struct {
		gapSec  int64
		bundles int
	}{{5, 1}, {11, 2}} {
		dir := t.TempDir()
		s := NewSink(SinkConfig{IncidentDir: dir, SLO: SLOConfig{TargetPer10k: 5, WindowCycles: 100}})
		var cycle uint64
		// One miss crosses the budget; 100 clean cycles slide it out of
		// the window, which re-arms the crossing.
		cross := func(sec int64) {
			for i := 0; i <= 100; i++ {
				cycle++
				s.RecordCycle(cycle, sec, 3_000_000, 2_900_000, i == 0, 0)
			}
		}
		cross(1000)
		cross(1000 + tc.gapSec)
		s.Flush()
		if got := s.Totals().Incidents; got != 2 {
			t.Fatalf("gap %d s: incidents = %d, want 2 crossings", tc.gapSec, got)
		}
		paths, _ := filepath.Glob(filepath.Join(dir, "incident-"+ReasonBudget+"-*.json"))
		if len(paths) != tc.bundles {
			t.Fatalf("gap %d s: %d bundles, want %d", tc.gapSec, len(paths), tc.bundles)
		}
	}
}

// TestSinkBudgetCrossingTriggers: RecordCycle fires the recorder itself,
// once, when the rolling miss window crosses its budget.
func TestSinkBudgetCrossingTriggers(t *testing.T) {
	dir := t.TempDir()
	s := NewSink(SinkConfig{IncidentDir: dir, SLO: SLOConfig{TargetPer10k: 5, WindowCycles: 1000}})
	for i := uint64(1); i <= 1002; i++ {
		s.RecordCycle(i, 100, 3_000_000, 2_900_000, i > 1000, 0)
	}
	s.Flush()
	if got := s.Totals().Incidents; got != 1 {
		t.Fatalf("incidents = %d, want 1 (a crossing, not a level)", got)
	}
	paths, _ := filepath.Glob(filepath.Join(dir, "incident-"+ReasonBudget+"-*.json"))
	if len(paths) != 1 {
		t.Fatalf("dumped %v, want one %s bundle", paths, ReasonBudget)
	}
	inc, err := LoadIncident(paths[0])
	if err != nil || inc.Cycle != 1001 || len(inc.Events) != 1 || inc.Events[0] != (Event{Cycle: 1001, Kind: ReasonBudget}) {
		t.Fatalf("bundle = %+v, %v; want the trigger event at cycle 1001", inc, err)
	}
}

func TestSinkNoDirNeverDumps(t *testing.T) {
	s := NewSink(SinkConfig{})
	s.Event(Stall, 1, "n")
	s.Flush()
	if got := s.Totals().Incidents; got != 1 {
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
