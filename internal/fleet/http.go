package fleet

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"djstar/internal/admission"
	"djstar/internal/apiv1"
	"djstar/internal/engine"
	"djstar/internal/graph"
	"djstar/internal/obs"
	"djstar/internal/sched"
)

// Handler returns the fleet's /v1 control plane:
//
//	GET    /v1/sessions              – list every session (all shards)
//	POST   /v1/sessions              – create: body apiv1.CreateSessionRequest;
//	                                   201 with the placement decision,
//	                                   400 on a config the graph rejects,
//	                                   429 on analytical refusal
//	GET    /v1/sessions/{id}         – session summary
//	DELETE /v1/sessions/{id}         – stop and release the session
//	/v1/sessions/{id}/...            – snapshot, critpath, trace, slo,
//	                                   edits, retune: the one route table
//	                                   of engine.MountSessionRoutes
//	GET    /v1/shards                – shard list with SLO rollups
//	GET    /v1/shards/{id}           – one shard
//	POST   /v1/shards/{id}/drain     – migrate all sessions off the shard
//	DELETE /v1/shards/{id}/drain     – reopen the shard for placement
//	GET    /metrics                  – OpenMetrics over every session
//	/debug/pprof/                    – standard pprof
func (f *Fleet) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)

	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, _ *http.Request) {
		list := apiv1.SessionList{Sessions: []apiv1.Session{}}
		for _, s := range f.Sessions() {
			list.Sessions = append(list.Sessions, f.v1Session(s))
		}
		apiv1.Write(w, http.StatusOK, list)
	})
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		var req apiv1.CreateSessionRequest
		if err := apiv1.Decode(w, r, &req); err != nil {
			apiv1.Write(w, http.StatusBadRequest, apiv1.Error{Error: "malformed body: " + err.Error()})
			return
		}
		spec := engine.SessionSpec{ID: req.ID}
		if req.Scale != 0 {
			g := f.cfg.Engine.Graph
			g.Scale = req.Scale
			spec.Graph = &g
		}
		s, placement, err := f.AddSession(spec)
		if err != nil {
			code := http.StatusInternalServerError
			switch {
			case errors.Is(err, admission.ErrOverBudget), errors.Is(err, sched.ErrPoolFull):
				// The fleet is analytically full — a load-shedding refusal,
				// not a server fault.
				code = http.StatusTooManyRequests
			case errors.Is(err, ErrDuplicate):
				code = http.StatusConflict
			case errors.Is(err, graph.ErrInvalidConfig):
				code = http.StatusBadRequest
			}
			apiv1.Write(w, code, apiv1.Error{Error: err.Error()})
			return
		}
		apiv1.Write(w, http.StatusCreated, apiv1.CreateSessionResponse{
			Session:   f.v1Session(s),
			Placement: placement,
		})
	})
	withSession := func(h func(http.ResponseWriter, *http.Request, *Session)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			s := f.Session(r.PathValue("id"))
			if s == nil {
				apiv1.Write(w, http.StatusNotFound, apiv1.Error{Error: fmt.Sprintf("no session %q", r.PathValue("id"))})
				return
			}
			h(w, r, s)
		}
	}
	mux.HandleFunc("GET /v1/sessions/{id}", withSession(func(w http.ResponseWriter, _ *http.Request, s *Session) {
		apiv1.Write(w, http.StatusOK, f.v1Session(s))
	}))
	mux.HandleFunc("DELETE /v1/sessions/{id}", withSession(func(w http.ResponseWriter, _ *http.Request, s *Session) {
		if err := f.RemoveSession(s.ID()); err != nil {
			apiv1.Write(w, http.StatusNotFound, apiv1.Error{Error: err.Error()})
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	engine.MountSessionRoutes(mux, func(id string) *engine.Engine {
		if s := f.Session(id); s != nil {
			return s.Engine()
		}
		return nil
	})

	mux.HandleFunc("GET /v1/shards", func(w http.ResponseWriter, _ *http.Request) {
		list := apiv1.ShardList{}
		for _, sh := range f.shards {
			st, _ := f.ShardStatus(sh.id)
			list.Shards = append(list.Shards, st)
		}
		apiv1.Write(w, http.StatusOK, list)
	})
	withShard := func(h func(http.ResponseWriter, *http.Request, int)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			id, err := strconv.Atoi(r.PathValue("id"))
			if err != nil || id < 0 || id >= len(f.shards) {
				apiv1.Write(w, http.StatusNotFound, apiv1.Error{Error: fmt.Sprintf("no shard %q", r.PathValue("id"))})
				return
			}
			h(w, r, id)
		}
	}
	mux.HandleFunc("GET /v1/shards/{id}", withShard(func(w http.ResponseWriter, _ *http.Request, id int) {
		st, err := f.ShardStatus(id)
		if err != nil {
			apiv1.Write(w, http.StatusNotFound, apiv1.Error{Error: err.Error()})
			return
		}
		apiv1.Write(w, http.StatusOK, st)
	}))
	mux.HandleFunc("POST /v1/shards/{id}/drain", withShard(func(w http.ResponseWriter, _ *http.Request, id int) {
		res, err := f.Drain(id)
		if err != nil {
			apiv1.Write(w, http.StatusNotFound, apiv1.Error{Error: err.Error()})
			return
		}
		code := http.StatusOK
		if res.Failed > 0 {
			code = http.StatusConflict
		}
		apiv1.Write(w, code, res)
	}))
	mux.HandleFunc("DELETE /v1/shards/{id}/drain", withShard(func(w http.ResponseWriter, _ *http.Request, id int) {
		if err := f.Undrain(id); err != nil {
			apiv1.Write(w, http.StatusNotFound, apiv1.Error{Error: err.Error()})
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))

	// The sink list is rebuilt per scrape: sessions churn, and each
	// session's sink carries its own session+shard labels.
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		obs.ServeMetrics(w, f.Sinks()...)
	})
	return mux
}

// v1Session overlays fleet placement state on the engine's session view.
func (f *Fleet) v1Session(s *Session) apiv1.Session {
	v := engine.V1Session(s.Engine())
	v.Shard = s.Shard()
	v.Verdict = admission.VerdictAdmit.String() // a refused session is never built
	v.BoundUS = s.BoundUS()
	v.HeadroomUS = s.HeadroomUS()
	return v
}

// Server is a running fleet control plane.
type Server struct {
	srv *http.Server
	ln  net.Listener
}

// Serve starts the control plane on addr (e.g. ":7070"; ":0" picks a
// free port, see Addr).
func (f *Fleet) Serve(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		srv: &http.Server{Handler: f.Handler(), ReadHeaderTimeout: 5 * time.Second},
		ln:  ln,
	}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down (the fleet keeps running).
func (s *Server) Close() error { return s.srv.Close() }
