package engine

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"djstar/internal/apiv1"
	"djstar/internal/obs"
	"djstar/internal/telemetry"
)

// DebugServer is the optional live-observability HTTP endpoint
// (djstar/djbench -http): net/http/pprof under /debug/pprof/, plus the
// versioned /v1 resource API over the engine's one session. It reads
// engine state through Snapshot/Collector only, so serving never
// touches the audio path.
type DebugServer struct {
	srv *http.Server
	ln  net.Listener
}

// StartDebugServer listens on addr (e.g. ":6060") and serves:
//
//	/debug/pprof/                – the standard pprof index and profiles
//	GET  /v1/sessions            – list (always exactly one session here)
//	GET  /v1/sessions/{id}           – session summary
//	GET  /v1/sessions/{id}/snapshot  – full engine.Snapshot JSON (versioned)
//	GET  /v1/sessions/{id}/critpath  – measured critical path JSON
//	GET  /v1/sessions/{id}/trace     – sampled cycles as Chrome trace JSON
//	GET  /v1/sessions/{id}/slo       – deadline-miss budget status JSON
//	POST /v1/sessions/{id}/edits     – stage a live graph edit {"patch":...}
//	POST /v1/sessions/{id}/retune    – live knobs {"load_factor":...}
//	/metrics                     – telemetry in OpenMetrics text format
//
// {id} must be the engine's session ID (GET /v1/sessions to discover
// it); anything else is 404 — the path names a resource, and this
// server hosts exactly one.
func StartDebugServer(addr string, e *Engine) (*DebugServer, error) {
	if e == nil {
		return nil, fmt.Errorf("engine: debug server needs an engine")
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	// checkID 404s requests addressing a session this server does not
	// host. Returns false after writing the error.
	checkID := func(w http.ResponseWriter, r *http.Request) bool {
		if id := r.PathValue("id"); id != e.SessionID() {
			writeJSONStatus(w, http.StatusNotFound,
				apiv1.Error{Error: fmt.Sprintf("no session %q (this server hosts session %q)", id, e.SessionID())})
			return false
		}
		return true
	}

	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, apiv1.SessionList{Sessions: []apiv1.Session{V1Session(e)}})
	})
	mux.HandleFunc("GET /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		if checkID(w, r) {
			writeJSON(w, V1Session(e))
		}
	})
	handleSnapshot := func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, e.Snapshot())
	}
	handleCritpath := func(w http.ResponseWriter, _ *http.Request) {
		ps, ok := e.CriticalPath()
		if !ok {
			writeJSONStatus(w, http.StatusServiceUnavailable, apiv1.Error{Error: "no observability data yet"})
			return
		}
		writeJSON(w, ps)
	}
	handleTrace := func(w http.ResponseWriter, _ *http.Request) {
		// One topology load keeps the plan and collector from one epoch.
		t := e.topo.Load()
		if t.col == nil {
			writeJSONStatus(w, http.StatusServiceUnavailable, apiv1.Error{Error: "observability disabled"})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = obs.WriteChromeTrace(w, t.plan, t.col.Traces())
	}
	handleEdit := func(w http.ResponseWriter, r *http.Request) {
		var req apiv1.EditRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Patch == "" {
			writeJSONStatus(w, http.StatusBadRequest, apiv1.Error{Error: `body must be {"patch":"<spec>"}`})
			return
		}
		if err := e.ApplyPatch(req.Patch); err != nil {
			writeJSONStatus(w, http.StatusUnprocessableEntity,
				apiv1.EditResponse{Epoch: e.PlanEpoch(), Error: err.Error()})
			return
		}
		// The edit is staged; adoption happens at the next cycle boundary
		// (watch plan_epoch in the snapshot).
		writeJSON(w, apiv1.EditResponse{OK: true, Staged: true, Epoch: e.PlanEpoch()})
	}
	mux.HandleFunc("GET /v1/sessions/{id}/snapshot", guard(checkID, handleSnapshot))
	mux.HandleFunc("GET /v1/sessions/{id}/critpath", guard(checkID, handleCritpath))
	mux.HandleFunc("GET /v1/sessions/{id}/trace", guard(checkID, handleTrace))
	mux.HandleFunc("POST /v1/sessions/{id}/edits", guard(checkID, handleEdit))
	mux.HandleFunc("POST /v1/sessions/{id}/retune", guard(checkID, func(w http.ResponseWriter, r *http.Request) {
		RetuneHandler(e, w, r)
	}))

	noTelemetry := func(w http.ResponseWriter, _ *http.Request) {
		writeJSONStatus(w, http.StatusServiceUnavailable, apiv1.Error{Error: "telemetry disabled"})
	}
	handleSLO := noTelemetry
	if tel := e.Telemetry(); tel != nil {
		mux.Handle("/metrics", telemetry.NewRegistry(tel).Handler())
		handleSLO = func(w http.ResponseWriter, _ *http.Request) { writeJSON(w, tel.SLO()) }
	} else {
		mux.HandleFunc("/metrics", noTelemetry)
	}
	mux.HandleFunc("GET /v1/sessions/{id}/slo", guard(checkID, handleSLO))

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	d := &DebugServer{
		srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		ln:  ln,
	}
	go func() { _ = d.srv.Serve(ln) }()
	return d, nil
}

// V1Session assembles the /v1 session summary for one engine. Fleet
// servers use it too, filling in the shard afterwards.
func V1Session(e *Engine) apiv1.Session {
	snap := e.Snapshot()
	s := apiv1.Session{
		ID:        snap.SessionID,
		Shard:     -1,
		Strategy:  snap.Strategy,
		Threads:   snap.Threads,
		Cycles:    snap.Cycles,
		PlanEpoch: snap.PlanEpoch,
		APCMeanMS: snap.APCMeanMS,
		MissRate:  snap.MissRate,
		GovLevel:  snap.Health.Level.String(),
		SLO:       snap.SLO,
	}
	if sh, err := strconv.Atoi(snap.Shard); err == nil {
		s.Shard = sh
	}
	if a := snap.Admission; a != nil {
		s.Verdict = a.Verdict
		if a.Report != nil {
			s.BoundUS = a.Report.BoundUS
			s.HeadroomUS = a.Report.HeadroomUS
		}
	}
	return s
}

// RetuneHandler applies a /v1 retune request to one engine — shared by
// the single-engine debug server and the fleet control plane.
func RetuneHandler(e *Engine, w http.ResponseWriter, r *http.Request) {
	var req apiv1.RetuneRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSONStatus(w, http.StatusBadRequest, apiv1.Error{Error: "malformed retune body: " + err.Error()})
		return
	}
	if req.LoadFactor != nil {
		if *req.LoadFactor <= 0 {
			writeJSONStatus(w, http.StatusUnprocessableEntity, apiv1.Error{Error: "load_factor must be > 0"})
			return
		}
		e.SetLoadFactor(*req.LoadFactor)
	}
	for d, speed := range req.TurntableSpeed {
		e.SetTurntableSpeed(d, speed)
	}
	writeJSON(w, apiv1.RetuneResponse{OK: true, LoadFactor: e.LoadFactor()})
}

// guard chains the {id} check in front of a handler.
func guard(check func(http.ResponseWriter, *http.Request) bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if check(w, r) {
			h(w, r)
		}
	}
}

// Addr returns the bound listen address (useful with ":0").
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// Close shuts the server down.
func (d *DebugServer) Close() error { return d.srv.Close() }

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeJSONStatus(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
