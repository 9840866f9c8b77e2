package engine

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"djstar/internal/admission"
	"djstar/internal/faults"
	"djstar/internal/graph"
	"djstar/internal/obs"
	"djstar/internal/sched"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// seededFaultConfig scripts three consecutive panics on FXA2 starting at
// cycle 10 — exactly the default quarantine threshold — so the flight
// recorder dumps one quarantine incident at a reproducible cycle. The
// SLO budget is set absurdly high to keep the (timing-dependent)
// deadline-budget trigger out of the bundle.
func seededFaultConfig(t *testing.T, dir string) Config {
	t.Helper()
	gc := graph.DefaultConfig()
	gc.TrackBars = 2
	specs, err := faults.Parse("panic:FXA2@10x3")
	if err != nil {
		t.Fatal(err)
	}
	gc.Faults = faults.New(1, specs...)
	return Config{
		Graph:    gc,
		Strategy: sched.NameBusyWait,
		Threads:  4,
		Telemetry: TelemetryOptions{
			IncidentDir: dir,
			SLO:         obs.SLOConfig{TargetPer10k: 10000},
		},
	}
}

func runSeededIncident(t *testing.T) *obs.Incident {
	t.Helper()
	dir := t.TempDir()
	e, err := New(seededFaultConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	e.RunCycles(100)
	e.Close() // flushes in-flight dumps
	paths, _ := filepath.Glob(filepath.Join(dir, "incident-*.json"))
	if len(paths) != 1 {
		t.Fatalf("seeded faults dumped %d bundles, want 1: %v", len(paths), paths)
	}
	inc, err := obs.LoadIncident(paths[0])
	if err != nil {
		t.Fatalf("LoadIncident: %v", err)
	}
	return inc
}

func TestEngineIncidentReplayMatchesLive(t *testing.T) {
	inc := runSeededIncident(t)
	if inc.Reason != obs.Quarantine.String() {
		t.Fatalf("reason = %q, want quarantine", inc.Reason)
	}
	if inc.Strategy != sched.NameBusyWait || inc.Threads != 4 || inc.Session != "0" {
		t.Fatalf("identity = %s/%d/%s, want busy/4/0", inc.Strategy, inc.Threads, inc.Session)
	}
	var faultEvents, quarantineEvents int
	for _, ev := range inc.Events {
		switch ev.Kind {
		case "fault":
			faultEvents++
			if ev.Detail != "FXA2" {
				t.Fatalf("fault event names %q, want FXA2", ev.Detail)
			}
		case "quarantine":
			quarantineEvents++
		}
	}
	// Quarantine fires on the 3rd consecutive fault, so the bundle holds
	// the two recovered faults plus the quarantine (which subsumes the
	// 3rd fault's record).
	if faultEvents < 2 || quarantineEvents == 0 {
		t.Fatalf("events = %+v, want ≥2 faults and a quarantine", inc.Events)
	}
	if inc.Totals.Quarantines != 1 {
		t.Fatalf("quarantines = %d, want 1", inc.Totals.Quarantines)
	}

	// The bundle must be self-contained: replaying the critical-path
	// analysis offline from the embedded graph + node means reproduces
	// the live engine's recorded result exactly.
	if inc.CritPath == nil {
		t.Fatal("bundle has no live critical path")
	}
	ps, err := inc.Replay()
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if ps.LengthUS != inc.CritPath.LengthUS {
		t.Fatalf("replayed critical path %v µs, live %v µs", ps.LengthUS, inc.CritPath.LengthUS)
	}
	if len(ps.Nodes) != len(inc.CritPath.Nodes) {
		t.Fatalf("replayed path has %d nodes, live %d", len(ps.Nodes), len(inc.CritPath.Nodes))
	}
	for i := range ps.Nodes {
		if ps.Nodes[i] != inc.CritPath.Nodes[i] {
			t.Fatalf("replayed path diverges at hop %d: %v vs %v", i, ps.Nodes, inc.CritPath.Nodes)
		}
	}
}

// TestLoadIncidentAcceptsBusDropsBundle: bundles written before the
// bus-drop counter was removed still carry "totals": {"bus_drops": 0, …}.
// They keep schema version 1 and must still load and replay to the
// critical path the live engine recorded.
func TestLoadIncidentAcceptsBusDropsBundle(t *testing.T) {
	inc := runSeededIncident(t)
	data, err := json.MarshalIndent(inc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	old := strings.Replace(string(data), `"totals": {`, `"totals": {`+"\n    \"bus_drops\": 0,", 1)
	if old == string(data) {
		t.Fatal("bundle has no totals object")
	}
	path := filepath.Join(t.TempDir(), "incident-old.json")
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := obs.LoadIncident(path)
	if err != nil {
		t.Fatalf("LoadIncident on a bus_drops bundle: %v", err)
	}
	if got.Totals != inc.Totals || got.CritPath == nil {
		t.Fatalf("totals %+v / critical path %v, want %+v and the live path", got.Totals, got.CritPath, inc.Totals)
	}
	ps, err := got.Replay()
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if ps.LengthUS != got.CritPath.LengthUS || ps.String() != got.CritPath.String() {
		t.Fatalf("replayed critical path %s (%v µs), live %s (%v µs)",
			ps.String(), ps.LengthUS, got.CritPath.String(), got.CritPath.LengthUS)
	}
}

// normalizeIncident zeroes the fields that legitimately vary run to run
// (wall-clock, timing-derived measurements, sampled traces) so the rest
// of the bundle — trigger identity, event sequence, graph structure —
// can be compared against a golden file byte for byte.
func normalizeIncident(inc *obs.Incident) *obs.Incident {
	n := *inc
	n.UnixNanos = 0
	n.SLO = obs.SLOStatus{}
	n.Totals = obs.Totals{}
	n.Traces = nil
	n.Series = nil
	n.NodeMeansUS = nil
	n.CritPath = nil
	return &n
}

func TestEngineIncidentGolden(t *testing.T) {
	inc := runSeededIncident(t)
	got, err := json.MarshalIndent(normalizeIncident(inc), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "incident_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if string(got) != string(want) {
		t.Fatalf("incident bundle drifted from golden file (run with -update if intentional)\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestEngineMetricsEndpoint(t *testing.T) {
	e, err := New(fastConfig(sched.NameBusyWait, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.RunCycles(20)
	srv, err := StartDebugServer("127.0.0.1:0", e)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		`djstar_cycles_total{strategy="busy",session="0"} 20`,
		"djstar_apc_seconds_bucket",
		"# EOF",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}

	resp, err = http.Get("http://" + srv.Addr() + "/v1/sessions/0/slo")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"target_per_10k"`) {
		t.Fatalf("/v1/sessions/0/slo status %d body %s", resp.StatusCode, body)
	}
}

func TestEngineMetricsEndpointDisabledTelemetry(t *testing.T) {
	cfg := fastConfig(sched.NameSequential, 1)
	cfg.Telemetry.Disable = true
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Telemetry() != nil {
		t.Fatal("Telemetry() non-nil with Disable set")
	}
	srv, err := StartDebugServer("127.0.0.1:0", e)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/metrics with telemetry disabled: status = %d, want 503", resp.StatusCode)
	}
}

// TestEventsWithAndWithoutSink drives one scripted run — three contained
// panics ending in a quarantine, a stall, governor escalations, an
// adopted and a rolled-back edit, an admission decision — through an
// engine with the telemetry sink and one with Telemetry.Disable. Every
// event call is unguarded, so the disabled engine exercises the nil-sink
// path: it must not panic and its Snapshot must account the run exactly
// as the enabled engine's does.
func TestEventsWithAndWithoutSink(t *testing.T) {
	run := func(disable bool) (Snapshot, *Engine) {
		specs, err := faults.Parse("panic:FXA2@2x3, stall:Mixer@14:300ms")
		if err != nil {
			t.Fatal(err)
		}
		cfg := fastConfig(sched.NameBusyWait, 4)
		cfg.Graph.Faults = faults.New(1, specs...)
		cfg.Watchdog, cfg.WatchdogWallMS = true, 100
		// Every cycle misses a 1 ns deadline: one escalation per window,
		// the first (meters) at cycle 4, FX only shed from cycle 8.
		cfg.Governor = GovernorConfig{Enabled: true, Window: 4, DeadlineMS: 1e-6}
		cfg.Admission = AdmissionOptions{Enabled: true, Config: admission.Config{PeriodUS: 1e9, Procs: 4}, PredictEvery: -1}
		cfg.Telemetry = TelemetryOptions{Disable: disable, SLO: obs.SLOConfig{TargetPer10k: 10000}}
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		e.RunCycles(16)
		if err := e.ApplyPatch("insert-delay:A:2"); err != nil {
			t.Fatal(err)
		}
		e.RunCycles(2)
		es := &graph.EditSet{}
		for i := 2; i < e.Plan().Len(); i++ {
			es.RemoveNode(graph.NodeRef(i))
		}
		if err := e.ApplyEdits(es); err != nil { // graph-valid; refused at the swap
			t.Fatal(err)
		}
		e.RunCycles(2)
		return e.Snapshot(), e
	}
	on, eOn := run(false)
	off, eOff := run(true)

	if eOff.Telemetry() != nil || off.SLO != nil || off.Shard != "" {
		t.Fatalf("disabled engine still reports telemetry: sink %v, slo %v", eOff.Telemetry(), off.SLO)
	}
	for _, s := range []Snapshot{on, off} {
		if s.Cycles != 20 || s.PlanEpoch != 1 || s.LastEdit == nil || s.LastEdit.Applied || s.LastEdit.Err == "" {
			t.Errorf("cycles %d, epoch %d, last edit %+v; want 20, 1, a rollback", s.Cycles, s.PlanEpoch, s.LastEdit)
		}
		h := s.Health
		if h.Faults.Recovered != 3 || h.Faults.Quarantined != 1 || len(h.Quarantined) != 1 || h.Quarantined[0] != "FXA2" {
			t.Errorf("faults = %+v, quarantined %v; want 3 recovered, FXA2 quarantined", h.Faults, h.Quarantined)
		}
		if h.Stalls < 1 || h.Level != GovCritical {
			t.Errorf("stalls %d, level %v; want ≥ 1, critical", h.Stalls, h.Level)
		}
		if s.Admission == nil || s.Admission.Verdict != "admit" {
			t.Errorf("admission = %+v, want admit", s.Admission)
		}
	}

	// The enabled engine's sink saw each of those events exactly once.
	tot := eOn.Telemetry().Totals()
	want := obs.Totals{
		Cycles: 20, DeadlineMisses: on.DeadlineMisses,
		Faults: 3, Quarantines: 1, Stalls: uint64(on.Health.Stalls), GovTransitions: 3,
		Incidents: 1 + uint64(on.Health.Stalls), GovLevel: int32(GovCritical),
		AdmissionBoundUS: tot.AdmissionBoundUS, AdmissionHeadroom: tot.AdmissionHeadroom,
	}
	if tot != want {
		t.Errorf("totals = %+v, want %+v", tot, want)
	}
}

func TestEngineSnapshotCarriesSLO(t *testing.T) {
	e, err := New(fastConfig(sched.NameBusyWait, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.RunCycles(30)
	snap := e.Snapshot()
	if snap.SLO == nil {
		t.Fatal("snapshot has no SLO status")
	}
	if snap.SLO.TotalCycles != 30 {
		t.Fatalf("SLO total cycles = %d, want 30", snap.SLO.TotalCycles)
	}
	if snap.SLO.TargetPer10k != 5 {
		t.Fatalf("SLO target = %v, want the paper's 5/10k", snap.SLO.TargetPer10k)
	}
}
