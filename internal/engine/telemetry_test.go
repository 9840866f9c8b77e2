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

	"djstar/internal/faults"
	"djstar/internal/graph"
	"djstar/internal/sched"
	"djstar/internal/telemetry"
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
			SLO:         telemetry.SLOConfig{TargetPer10k: 10000},
		},
	}
}

func runSeededIncident(t *testing.T) *telemetry.Incident {
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
	inc, err := telemetry.LoadIncident(paths[0])
	if err != nil {
		t.Fatalf("LoadIncident: %v", err)
	}
	return inc
}

func TestEngineIncidentReplayMatchesLive(t *testing.T) {
	inc := runSeededIncident(t)
	if inc.Reason != telemetry.TriggerQuarantine {
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

// normalizeIncident zeroes the fields that legitimately vary run to run
// (wall-clock, timing-derived measurements, sampled traces) so the rest
// of the bundle — trigger identity, event sequence, graph structure —
// can be compared against a golden file byte for byte.
func normalizeIncident(inc *telemetry.Incident) *telemetry.Incident {
	n := *inc
	n.UnixNanos = 0
	n.SLO = telemetry.SLOStatus{}
	n.Totals = telemetry.Totals{}
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
