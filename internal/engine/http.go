package engine

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"djstar/internal/apiv1"
	"djstar/internal/obs"
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
//	/debug/pprof/          – the standard pprof index and profiles
//	GET /v1/sessions       – list (always exactly one session here)
//	GET /v1/sessions/{id}  – session summary
//	/v1/sessions/{id}/...  – the sub-resources of MountSessionRoutes
//	/metrics               – telemetry in OpenMetrics text format
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

	lookup := func(id string) *Engine {
		if id != e.SessionID() {
			return nil
		}
		return e
	}
	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, _ *http.Request) {
		apiv1.Write(w, http.StatusOK, apiv1.SessionList{Sessions: []apiv1.Session{V1Session(e)}})
	})
	mux.HandleFunc("GET /v1/sessions/{id}", withSession(lookup, func(w http.ResponseWriter, _ *http.Request, e *Engine) {
		apiv1.Write(w, http.StatusOK, V1Session(e))
	}))
	MountSessionRoutes(mux, lookup)

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		if e.cfg.Telemetry.Disable {
			apiv1.Write(w, http.StatusServiceUnavailable, apiv1.Error{Error: "telemetry disabled"})
			return
		}
		obs.ServeMetrics(w, e.tel)
	})

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

// withSession resolves the {id} path segment through lookup and answers
// 404 when it names no session the server hosts.
func withSession(lookup func(id string) *Engine, h func(http.ResponseWriter, *http.Request, *Engine)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		e := lookup(r.PathValue("id"))
		if e == nil {
			apiv1.Write(w, http.StatusNotFound, apiv1.Error{Error: fmt.Sprintf("no session %q", r.PathValue("id"))})
			return
		}
		h(w, r, e)
	}
}

// MountSessionRoutes registers the per-session sub-resources of the /v1
// API on mux — the one route table behind both the debug server (its one
// engine) and the fleet control plane (its session registry):
//
//	GET  /v1/sessions/{id}/snapshot  – full engine.Snapshot JSON (versioned)
//	GET  /v1/sessions/{id}/critpath  – measured critical path JSON
//	GET  /v1/sessions/{id}/trace     – sampled cycles as Chrome trace JSON
//	GET  /v1/sessions/{id}/slo       – deadline-miss budget status JSON
//	POST /v1/sessions/{id}/edits     – stage a live graph edit {"patch":...}
//	POST /v1/sessions/{id}/retune    – live knobs {"load_factor":...}
//
// lookup returns the engine serving a session ID, nil when there is none.
func MountSessionRoutes(mux *http.ServeMux, lookup func(id string) *Engine) {
	route := func(pattern string, h func(http.ResponseWriter, *http.Request, *Engine)) {
		mux.HandleFunc(pattern, withSession(lookup, h))
	}
	route("GET /v1/sessions/{id}/snapshot", func(w http.ResponseWriter, _ *http.Request, e *Engine) {
		apiv1.Write(w, http.StatusOK, e.Snapshot())
	})
	route("GET /v1/sessions/{id}/critpath", func(w http.ResponseWriter, _ *http.Request, e *Engine) {
		ps, ok := e.CriticalPath()
		if !ok {
			apiv1.Write(w, http.StatusServiceUnavailable, apiv1.Error{Error: "no observability data yet"})
			return
		}
		apiv1.Write(w, http.StatusOK, ps)
	})
	route("GET /v1/sessions/{id}/trace", func(w http.ResponseWriter, _ *http.Request, e *Engine) {
		// One topology load keeps the plan and collector from one epoch.
		t := e.topo.Load()
		if t.col == nil {
			apiv1.Write(w, http.StatusServiceUnavailable, apiv1.Error{Error: "observability disabled"})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = obs.WriteChromeTrace(w, t.plan, t.col.Traces())
	})
	route("GET /v1/sessions/{id}/slo", func(w http.ResponseWriter, _ *http.Request, e *Engine) {
		if e.cfg.Telemetry.Disable {
			apiv1.Write(w, http.StatusServiceUnavailable, apiv1.Error{Error: "telemetry disabled"})
			return
		}
		apiv1.Write(w, http.StatusOK, e.tel.SLO())
	})
	route("POST /v1/sessions/{id}/edits", func(w http.ResponseWriter, r *http.Request, e *Engine) {
		var req apiv1.EditRequest
		if err := apiv1.Decode(w, r, &req); err != nil || req.Patch == "" {
			apiv1.Write(w, http.StatusBadRequest, apiv1.Error{Error: `body must be {"patch":"<spec>"}`})
			return
		}
		if err := e.ApplyPatch(req.Patch); err != nil {
			apiv1.Write(w, http.StatusUnprocessableEntity,
				apiv1.EditResponse{Epoch: e.PlanEpoch(), Error: err.Error()})
			return
		}
		// The edit is staged; adoption happens at the next cycle boundary
		// (watch plan_epoch in the snapshot).
		apiv1.Write(w, http.StatusOK, apiv1.EditResponse{OK: true, Staged: true, Epoch: e.PlanEpoch()})
	})
	route("POST /v1/sessions/{id}/retune", func(w http.ResponseWriter, r *http.Request, e *Engine) {
		var req apiv1.RetuneRequest
		if err := apiv1.Decode(w, r, &req); err != nil {
			apiv1.Write(w, http.StatusBadRequest, apiv1.Error{Error: "malformed retune body: " + err.Error()})
			return
		}
		if req.LoadFactor != nil {
			if *req.LoadFactor <= 0 {
				apiv1.Write(w, http.StatusUnprocessableEntity, apiv1.Error{Error: "load_factor must be > 0"})
				return
			}
			e.SetLoadFactor(*req.LoadFactor)
		}
		for d, speed := range req.TurntableSpeed {
			e.SetTurntableSpeed(d, speed)
		}
		apiv1.Write(w, http.StatusOK, apiv1.RetuneResponse{OK: true, LoadFactor: e.LoadFactor()})
	})
}

// V1Session assembles the /v1 session summary for one engine from its
// lock-free totals and published state — no per-node stats or critical
// path, so listing N sessions does not cost N Snapshots. Fleet servers
// use it too, overlaying placement state afterwards.
func V1Session(e *Engine) apiv1.Session {
	sch := e.sch()
	s := apiv1.Session{
		ID:        e.SessionID(),
		Shard:     -1,
		Strategy:  sch.Name(),
		Threads:   sch.Threads(),
		Cycles:    e.totals.Cycles(),
		APCMeanMS: e.totals.APCMeanMS(),
		MissRate:  e.totals.MissRate(),
		PlanEpoch: e.PlanEpoch(),
		GovLevel:  e.GovLevel().String(),
	}
	if !e.cfg.Telemetry.Disable {
		slo := e.tel.SLO()
		s.SLO = &slo
	}
	if sh, err := strconv.Atoi(e.tel.Shard()); err == nil {
		s.Shard = sh
	}
	if a := e.AdmissionState(); a != nil {
		s.Verdict = a.Verdict
		if a.Report != nil {
			s.BoundUS = a.Report.BoundUS
			s.HeadroomUS = a.Report.HeadroomUS
		}
	}
	return s
}

// Addr returns the bound listen address (useful with ":0").
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// Close shuts the server down.
func (d *DebugServer) Close() error { return d.srv.Close() }
