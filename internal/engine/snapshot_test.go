package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"

	"djstar/internal/admission"
	"djstar/internal/apiv1"
	"djstar/internal/obs"
	"djstar/internal/sched"
)

func TestSnapshotUnifiesMetricsAndObs(t *testing.T) {
	e, err := New(fastConfig(sched.NameBusyWait, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	s := e.Snapshot()
	if s.SchemaVersion != SnapshotSchemaVersion {
		t.Fatalf("schema = %d, want %d", s.SchemaVersion, SnapshotSchemaVersion)
	}
	if s.Cycles != 0 || s.Nodes != nil || s.CritPath != nil {
		t.Fatalf("fresh engine snapshot not empty: %+v", s)
	}

	const cycles = 60
	for i := 0; i < cycles; i++ {
		e.Cycle(nil)
	}
	s = e.Snapshot()
	if s.Cycles != cycles {
		t.Fatalf("cycles = %d, want %d", s.Cycles, cycles)
	}
	if s.Strategy != sched.NameBusyWait || s.Threads != 2 {
		t.Fatalf("identity wrong: %s/%d", s.Strategy, s.Threads)
	}
	if s.APCMeanMS <= 0 || s.GraphMeanMS <= 0 || s.APCMeanMS < s.GraphMeanMS {
		t.Fatalf("component means inconsistent: %+v", s)
	}
	if len(s.Nodes) != e.Plan().Len() {
		t.Fatalf("%d node stats, want %d", len(s.Nodes), e.Plan().Len())
	}
	for _, n := range s.Nodes {
		if n.Count != cycles {
			t.Fatalf("node %s count = %d, want %d", n.Name, n.Count, cycles)
		}
	}
	if s.CritPath == nil || s.CritPath.LengthUS <= 0 {
		t.Fatal("missing critical path")
	}
	// The critical path under mean durations cannot exceed the mean
	// measured makespan by more than noise; sanity-bound it against the
	// mean graph time.
	if s.CritPath.LengthUS > s.GraphMeanMS*1e3*1.5 {
		t.Fatalf("critical path %.1f µs vs graph mean %.3f ms", s.CritPath.LengthUS, s.GraphMeanMS)
	}
	if s.Health.Level.String() == "" {
		t.Fatal("health missing from snapshot")
	}

	// The snapshot is the wire shape for the HTTP endpoint and bus: it
	// must round-trip JSON.
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.SchemaVersion != s.SchemaVersion || back.Cycles != s.Cycles || len(back.Nodes) != len(s.Nodes) {
		t.Fatalf("round-trip lost data: %+v", back)
	}
}

func TestSnapshotObsDisabled(t *testing.T) {
	cfg := fastConfig(sched.NameSequential, 1)
	cfg.Obs = ObsOptions{Disable: true}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 10; i++ {
		e.Cycle(nil)
	}
	s := e.Snapshot()
	if s.Nodes != nil || s.CritPath != nil {
		t.Fatal("disabled collector leaked node stats into snapshot")
	}
	if s.Cycles != 10 || s.APCMeanMS <= 0 {
		t.Fatalf("live accounting must survive Obs.Disable: %+v", s)
	}
	if _, ok := e.CriticalPath(); ok {
		t.Fatal("CriticalPath ok with collector disabled")
	}
}

func TestDebugServerEndpoints(t *testing.T) {
	e, err := New(fastConfig(sched.NameBusyWait, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 64; i++ {
		e.Cycle(nil)
	}

	srv, err := StartDebugServer("127.0.0.1:0", e)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr(), path))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	var snap Snapshot
	if err := json.Unmarshal(get("/v1/sessions/0/snapshot"), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.SchemaVersion != SnapshotSchemaVersion || snap.Cycles != 64 {
		t.Fatalf("snapshot over HTTP: %+v", snap)
	}

	var ps obs.PathStat
	if err := json.Unmarshal(get("/v1/sessions/0/critpath"), &ps); err != nil {
		t.Fatal(err)
	}
	if ps.LengthUS <= 0 || len(ps.Nodes) == 0 {
		t.Fatalf("critpath over HTTP: %+v", ps)
	}

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(get("/v1/sessions/0/trace"), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace endpoint returned no events (64 cycles at default sampling should produce 2 samples)")
	}

	if body := get("/debug/pprof/cmdline"); len(body) == 0 {
		t.Fatal("pprof endpoint empty")
	}
}

// TestV1SessionMatchesSnapshot: the session summary is assembled from
// the lock-free totals, not from a Snapshot, and must still serialize
// byte-identically to the summary derived from one — with the admission
// gate, telemetry and a shard label all present.
func TestV1SessionMatchesSnapshot(t *testing.T) {
	cfg := fastConfig(sched.NameBusyWait, 2)
	cfg.Telemetry.Session = "sess"
	cfg.Telemetry.Shard = "3"
	cfg.Governor.Enabled = true
	// Two processors whatever the host: two busy workers stay boundable.
	cfg.Admission = AdmissionOptions{Enabled: true, Config: admission.Config{Procs: 2}, PredictEvery: -1}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.RunCycles(50)

	snap := e.Snapshot()
	want := apiv1.Session{
		ID: snap.SessionID, Shard: 3, Strategy: snap.Strategy, Threads: snap.Threads,
		Cycles: snap.Cycles, PlanEpoch: snap.PlanEpoch, APCMeanMS: snap.APCMeanMS,
		MissRate: snap.MissRate, GovLevel: snap.Health.Level.String(), SLO: snap.SLO,
		Verdict: snap.Admission.Verdict, BoundUS: snap.Admission.Report.BoundUS,
		HeadroomUS: snap.Admission.Report.HeadroomUS,
	}
	if want.Cycles != 50 || want.APCMeanMS <= 0 || want.SLO == nil || want.Verdict == "" {
		t.Fatalf("degenerate reference summary: %+v", want)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(V1Session(e))
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("V1Session drifted from the Snapshot-derived summary:\ngot  %s\nwant %s", gotJSON, wantJSON)
	}
}
