package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"djstar/internal/apiv1"
	"djstar/internal/engine"
)

// TestCreateRejectsBadScale: on a fleet built without a calibration (as
// `djserve -scale 0` builds it) a positive scale cannot be honoured, and
// a negative one is never valid. Both are the client's error: 400, and no
// session is created. So is a field the request does not have, such as
// the retired per-session "fuse" and "admission_margin".
func TestCreateRejectsBadScale(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h := f.Handler()
	for _, body := range []string{`{"scale":0.5}`, `{"scale":-1}`, `{"fuse":true}`, `{"admission_margin":0.01}`} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("POST /v1/sessions %s = %d, want 400: %s", body, rec.Code, rec.Body)
		}
	}
	if n := len(f.Sessions()); n != 0 {
		t.Fatalf("%d sessions created, want 0", n)
	}
}

// TestControlPlane drives a two-shard fleet through the full /v1
// lifecycle over HTTP: create (with placement justification), list,
// snapshot, retune, edit, shard rollups, drain, undrain, destroy.
func TestControlPlane(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	do := func(method, path string, body any, wantCode int, out any) {
		t.Helper()
		var rd io.Reader
		if body != nil {
			b, _ := json.Marshal(body)
			rd = bytes.NewReader(b)
		}
		req, err := http.NewRequest(method, ts.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != wantCode {
			t.Fatalf("%s %s = %d, want %d: %s", method, path, resp.StatusCode, wantCode, raw)
		}
		if out != nil {
			if err := json.Unmarshal(raw, out); err != nil {
				t.Fatalf("%s %s: bad JSON: %v: %s", method, path, err, raw)
			}
		}
	}

	// Create two sessions; the response must justify the placement.
	var created apiv1.CreateSessionResponse
	do("POST", "/v1/sessions", apiv1.CreateSessionRequest{}, http.StatusCreated, &created)
	if created.Session.ID == "" || created.Placement.Shard < 0 || len(created.Placement.Candidates) != 2 {
		t.Fatalf("create response %+v", created)
	}
	if created.Session.Verdict != "admit" {
		t.Fatalf("verdict = %q", created.Session.Verdict)
	}
	var second apiv1.CreateSessionResponse
	do("POST", "/v1/sessions", apiv1.CreateSessionRequest{ID: "named"}, http.StatusCreated, &second)
	if second.Session.ID != "named" {
		t.Fatalf("requested ID ignored: %+v", second.Session)
	}
	do("POST", "/v1/sessions", apiv1.CreateSessionRequest{ID: "named"}, http.StatusConflict, nil)

	var list apiv1.SessionList
	do("GET", "/v1/sessions", nil, http.StatusOK, &list)
	if len(list.Sessions) != 2 {
		t.Fatalf("listed %d sessions", len(list.Sessions))
	}
	do("GET", "/v1/sessions/nope", nil, http.StatusNotFound, nil)

	var snap engine.Snapshot
	do("GET", fmt.Sprintf("/v1/sessions/%s/snapshot", created.Session.ID), nil, http.StatusOK, &snap)
	if snap.SchemaVersion != engine.SnapshotSchemaVersion || snap.SessionID != created.Session.ID {
		t.Fatalf("snapshot v%d session %q", snap.SchemaVersion, snap.SessionID)
	}

	lf := 1.5
	var ret apiv1.RetuneResponse
	do("POST", fmt.Sprintf("/v1/sessions/%s/retune", created.Session.ID),
		apiv1.RetuneRequest{LoadFactor: &lf}, http.StatusOK, &ret)
	if !ret.OK || ret.LoadFactor != 1.5 {
		t.Fatalf("retune %+v", ret)
	}

	var edit apiv1.EditResponse
	do("POST", fmt.Sprintf("/v1/sessions/%s/edits", created.Session.ID),
		apiv1.EditRequest{Patch: "insert-delay:B:2"}, http.StatusOK, &edit)
	if !edit.OK || !edit.Staged {
		t.Fatalf("edit %+v", edit)
	}

	var shards apiv1.ShardList
	do("GET", "/v1/shards", nil, http.StatusOK, &shards)
	if len(shards.Shards) != 2 {
		t.Fatalf("%d shards", len(shards.Shards))
	}
	for _, sh := range shards.Shards {
		if sh.SLO.TargetPer10k != 5 {
			t.Fatalf("shard %d SLO target %v", sh.ID, sh.SLO.TargetPer10k)
		}
	}

	// Drain whichever shard hosts the first session; it must move.
	src := created.Session.Shard
	var dr apiv1.DrainResponse
	do("POST", fmt.Sprintf("/v1/shards/%d/drain", src), nil, http.StatusOK, &dr)
	if dr.Moved < 1 || dr.Failed != 0 {
		t.Fatalf("drain %+v", dr)
	}
	var moved apiv1.Session
	do("GET", "/v1/sessions/"+created.Session.ID, nil, http.StatusOK, &moved)
	if moved.Shard == src {
		t.Fatalf("session still on drained shard %d", src)
	}
	var shard apiv1.Shard
	do("GET", fmt.Sprintf("/v1/shards/%d", src), nil, http.StatusOK, &shard)
	if !shard.Draining || shard.Sessions != 0 {
		t.Fatalf("drained shard %+v", shard)
	}
	do("DELETE", fmt.Sprintf("/v1/shards/%d/drain", src), nil, http.StatusNoContent, nil)

	// Metrics exposition covers every session with its session label.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(raw)
	if !strings.Contains(body, `session="named"`) || !strings.Contains(body, "# EOF") {
		t.Fatalf("/metrics missing session labels or EOF:\n%.400s", body)
	}

	do("DELETE", "/v1/sessions/"+created.Session.ID, nil, http.StatusNoContent, nil)
	do("GET", "/v1/sessions/"+created.Session.ID, nil, http.StatusNotFound, nil)
	do("GET", "/v1/shards/9", nil, http.StatusNotFound, nil)
}

// TestSessionRoutesOnBothMounts hits every per-session sub-resource
// route through both mounts of engine.MountSessionRoutes — a fleet
// served by Fleet.Serve and a debug server over the same session's
// engine — and checks status and body shape on each, byte-identical GET
// bodies across the two (the session's driver is parked between cycles
// for the duration, so the engine is quiescent), 404 for an unknown ID
// on every route, and 400 for a body over apiv1.MaxBodyBytes.
func TestSessionRoutesOnBothMounts(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 1
	cfg.Engine.Obs.TraceEvery = 1
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, _, err := f.AddSession(engine.SessionSpec{ID: "sess"})
	if err != nil {
		t.Fatal(err)
	}
	fsrv, err := f.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer fsrv.Close()
	dsrv, err := engine.StartDebugServer("127.0.0.1:0", s.Engine())
	if err != nil {
		t.Fatal(err)
	}
	defer dsrv.Close()
	mounts := []struct{ name, base, deck string }{
		{"debug", "http://" + dsrv.Addr(), "A"},
		{"fleet", "http://" + fsrv.Addr(), "B"},
	}

	deadline := time.Now().Add(5 * time.Second)
	for s.Engine().Cycles() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("session driver not advancing")
		}
		time.Sleep(5 * time.Millisecond)
	}
	release := make(chan struct{})
	parked := make(chan struct{})
	go func() { _ = s.do(func() error { close(parked); <-release; return nil }) }()
	<-parked
	defer close(release)

	huge := `{"patch":"` + strings.Repeat("x", apiv1.MaxBodyBytes) + `"}`
	field := func(key string, ok func(v any) bool) func([]byte) bool {
		return func(raw []byte) bool {
			var m map[string]any
			return json.Unmarshal(raw, &m) == nil && ok(m[key])
		}
	}
	isTrue := func(v any) bool { return v == true }
	nonEmpty := func(v any) bool { str, _ := v.(string); return str != "" }
	routes := []struct {
		method, sub, body string // %s in body = the mount's deck letter
		code              int
		shape             func(raw []byte) bool
	}{
		{"GET", "snapshot", "", 200, field("session_id", func(v any) bool { return v == "sess" })},
		{"GET", "critpath", "", 200, field("names", func(v any) bool { l, _ := v.([]any); return len(l) > 0 })},
		{"GET", "trace", "", 200, func(raw []byte) bool { return bytes.Contains(raw, []byte(`"ph":"X"`)) }},
		{"GET", "slo", "", 200, field("target_per_10k", func(v any) bool { return v == 5.0 })},
		{"POST", "retune", `{"load_factor":1.5}`, 200, field("ok", isTrue)},
		{"POST", "retune", `{"load_factor":-1}`, 422, field("error", nonEmpty)},
		{"POST", "retune", `{"load_factor":`, 400, field("error", nonEmpty)},
		{"POST", "retune", `{"load_factr":2}`, 400, field("error", nonEmpty)},
		{"POST", "retune", huge, 400, field("error", nonEmpty)},
		{"POST", "edits", `{"patch":"insert-delay:%s:2"}`, 200, field("staged", isTrue)},
		{"POST", "edits", `{"patch":"no-such-op"}`, 422, field("error", nonEmpty)},
		{"POST", "edits", `{}`, 400, field("error", nonEmpty)},
		{"POST", "edits", `{"patch":"insert-delay:%s:2"}{}`, 400, field("error", nonEmpty)},
		{"POST", "edits", huge, 400, field("error", nonEmpty)},
	}
	call := func(method, url, body string) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, raw
	}
	for _, rt := range routes {
		var bodies [][]byte
		for _, m := range mounts {
			body := rt.body
			if strings.Contains(body, "%s") {
				body = fmt.Sprintf(body, m.deck)
			}
			code, raw := call(rt.method, m.base+"/v1/sessions/sess/"+rt.sub, body)
			if code != rt.code || !rt.shape(raw) {
				t.Errorf("%s: %s %s %.40s = %d (want %d), body %.200s", m.name, rt.method, rt.sub, body, code, rt.code, raw)
			}
			bodies = append(bodies, raw)

			code, raw = call(rt.method, m.base+"/v1/sessions/nope/"+rt.sub, body)
			var e apiv1.Error
			if code != 404 || json.Unmarshal(raw, &e) != nil || e.Error == "" {
				t.Errorf("%s: %s %s on unknown id = %d, body %.200s", m.name, rt.method, rt.sub, code, raw)
			}
		}
		if rt.method == "GET" && !bytes.Equal(bodies[0], bodies[1]) {
			t.Errorf("GET %s: debug and fleet bodies differ:\n%.300s\n%.300s", rt.sub, bodies[0], bodies[1])
		}
	}
	if code, raw := call("POST", mounts[1].base+"/v1/sessions", `{"id":"`+strings.Repeat("x", apiv1.MaxBodyBytes)+`"}`); code != 400 {
		t.Errorf("oversized create = %d, body %.200s", code, raw)
	}
}
