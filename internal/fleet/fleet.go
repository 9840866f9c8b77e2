// Package fleet shards one process's sessions across N independent
// worker pools sized to the machine's core topology — the one
// multi-session container (a single shared pool is a one-shard fleet).
// Each shard owns a sched.Pool plus an admission.Controller, optionally
// pinned to a disjoint CPU set (Linux sched_setaffinity; portable no-op
// elsewhere), so shards cannot steal each other's cores and one shard's
// overload cannot smear across the fleet.
//
// New sessions are placed by ANALYTICAL HEADROOM: every non-draining
// shard with a free session slot has its controller probed with the
// candidate's admission report, and the session lands on the shard
// whose post-admission minimum aggregate headroom is largest (ties fall
// to the shard with fewer sessions, then the lower ID — degenerating to
// round-robin on a symmetric fleet). The shard controllers are the only
// place cross-session admission is decided; the engine's own gate,
// switched off for fleet sessions, judges a session alone. Draining a
// shard migrates its sessions onto the rest of the fleet at cycle
// boundaries via engine.Rebind, carrying audio state, cycle counts and
// fault state so no cycle is lost or doubled; fleet-scoped session IDs
// stay stable across the move.
//
// See DESIGN.md §16.
package fleet

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"djstar/internal/admission"
	"djstar/internal/apiv1"
	"djstar/internal/audio"
	"djstar/internal/engine"
	"djstar/internal/graph"
	"djstar/internal/hardware"
	"djstar/internal/obs"
	"djstar/internal/sched"
	"djstar/internal/synth"
)

// ErrSessionClosed reports an operation against a session whose driver
// has stopped.
var ErrSessionClosed = errors.New("fleet: session closed")

// ErrDuplicate reports an AddSession with an ID already in use.
var ErrDuplicate = errors.New("fleet: duplicate session ID")

// Config configures a fleet.
type Config struct {
	// Shards is the shard count (default 2).
	Shards int
	// WorkersPerShard is the helper worker count of each shard's pool
	// (session drivers add one more executor each). Default
	// helpersPerShard: the smallest shard's CPU count minus one, never
	// below zero, so a one-CPU shard's sessions run on their drivers alone.
	WorkersPerShard int
	// SessionsPerShard caps concurrently attached sessions per shard
	// (pool slot capacity; default 256).
	SessionsPerShard int
	// Pin pins each shard's workers to its disjoint CPU set via
	// sched_setaffinity. Silently ignored where unsupported
	// (hardware.PinningSupported reports false).
	Pin bool
	// Period paces each session's cycle loop (default
	// audio.StandardPacketPeriod, the 2.902 ms packet clock). Negative
	// runs unpaced, back to back.
	Period time.Duration
	// Engine is the base per-session config; SessionSpec resolves over
	// it. Strategy/Threads/Pool and the engine-level admission gate are
	// overridden per shard — the fleet owns admission. New renders the
	// standard tracks once for any deck Engine.Graph.Tracks leaves out,
	// and every session whose graph has no tracks of its own plays these.
	Engine engine.Config
	// Admission configures each shard's controller (zero = defaults:
	// one packet period of envelope, admission.DefaultPeriodUS, and a
	// 1.25 margin; BaseUS defaults from the graph scale).
	Admission admission.Config
	// OnPlacement observes every placement decision (create and drain).
	OnPlacement func(apiv1.Placement)
	// Logf, when set, receives placement/drain log lines.
	Logf func(format string, args ...any)
}

// Shard is one independent pool + admission controller, optionally
// pinned to a disjoint CPU set.
type Shard struct {
	id       int
	cpus     []int
	pool     *sched.Pool
	ctl      *admission.Controller
	procs    int
	pinned   bool
	draining atomic.Bool
}

// Pool exposes the shard's worker pool.
func (sh *Shard) Pool() *sched.Pool { return sh.pool }

// Controller exposes the shard's admission controller.
func (sh *Shard) Controller() *admission.Controller { return sh.ctl }

// Fleet owns the shards and the session registry.
type Fleet struct {
	cfg    Config
	period time.Duration
	acfg   admission.Config
	shards []*Shard

	// mu serializes placement (probe → admit must be atomic across
	// shards) and guards sessions/seq.
	mu       sync.Mutex
	sessions map[string]*Session
	seq      int
	closed   bool

	// repCache caches the per-session admission report: the work,
	// critical-path and base terms controllers consume depend only on
	// the graph's shape and scale.
	repCache map[reportKey]*admission.Report
}

// reportKey is the part of a graph.Config an admission report depends on.
type reportKey struct {
	decks, fxPerDeck int
	scale            float64
}

// New builds the fleet: Shards pools with WorkersPerShard helpers each,
// pinned to disjoint CPU sets when requested and supported.
func New(cfg Config) (*Fleet, error) {
	if cfg.Shards == 0 {
		cfg.Shards = 2
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("fleet: %d shards, want >= 1", cfg.Shards)
	}
	if cfg.SessionsPerShard <= 0 {
		cfg.SessionsPerShard = 256
	}
	period := cfg.Period
	if period == 0 {
		period = audio.StandardPacketPeriod
	}
	cfg.Engine.Graph.Tracks = sharedTracks(cfg.Engine.Graph)
	acfg := cfg.Admission
	if acfg.BaseUS == 0 {
		acfg.BaseUS = engine.SessionBaseUS(cfg.Engine.Graph.Scale)
	}
	f := &Fleet{
		cfg:      cfg,
		period:   period,
		acfg:     acfg,
		sessions: make(map[string]*Session),
		repCache: make(map[reportKey]*admission.Report),
	}
	sets := hardware.SplitCPUs(runtime.NumCPU(), cfg.Shards)
	workers := cfg.WorkersPerShard
	if workers <= 0 {
		workers = helpersPerShard(sets)
	}
	for i := 0; i < cfg.Shards; i++ {
		cpus := sets[i]
		sh := &Shard{id: i, cpus: cpus}
		var popts sched.PoolOptions
		// Only helpers are pinned: a helper-less shard's drivers float.
		if cfg.Pin && workers > 0 && hardware.PinningSupported() && len(cpus) > 0 {
			set := cpus
			popts.OnWorkerStart = func(int) { _ = hardware.PinThread(set) }
			sh.pinned = true
		}
		pool, err := sched.NewPoolWith(workers, cfg.SessionsPerShard, popts)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("fleet: shard %d: %w", i, err)
		}
		sh.pool = pool
		// The controller counts the parallelism the shard really has:
		// workers+1 (the driving session lends its goroutine), clamped to
		// the shard's CPU share when pinned, the whole machine otherwise.
		limit := runtime.GOMAXPROCS(0)
		if sh.pinned {
			limit = len(cpus)
		}
		sh.procs = max(min(workers+1, limit), 1)
		sh.ctl = admission.NewController(sh.procs, acfg)
		f.shards = append(f.shards, sh)
	}
	return f, nil
}

// helpersPerShard is every shard's default helper count: the smallest
// set's CPU count minus one, never below zero. With its drivers a shard
// runs one executor per CPU, and one width for all lets any shard take
// another's sessions (AttachMigrated refuses a wider destination).
func helpersPerShard(sets [][]int) int {
	n := len(sets[0])
	for _, cpus := range sets {
		n = min(n, len(cpus))
	}
	return max(n-1, 0)
}

// sharedTracks returns g's four deck tracks, each one g leaves out filled
// from a single render of the standard set at g's length, so that no
// session renders tracks of its own.
func sharedTracks(g graph.Config) []*synth.Track {
	tracks := make([]*synth.Track, 4)
	copy(tracks, g.Tracks)
	if slices.Contains(tracks, nil) {
		std := synth.StandardDeckTracks(g.TrackBars)
		for d, tr := range tracks {
			if tr == nil {
				tracks[d] = std[d]
			}
		}
	}
	return tracks
}

// Shards returns the shard slice (fixed after New).
func (f *Fleet) Shards() []*Shard { return f.shards }

// Period returns the session pacing period.
func (f *Fleet) Period() time.Duration { return f.period }

func (f *Fleet) logf(format string, args ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(format, args...)
	}
}

// report returns the cached per-session admission report for a graph
// config — total work, critical path and base cost at the config's
// scale, the terms shard controllers aggregate.
func (f *Fleet) report(gcfg graph.Config) (*admission.Report, error) {
	key := reportKey{gcfg.Decks, gcfg.FXPerDeck, gcfg.Scale}
	if rep, ok := f.repCache[key]; ok {
		return rep, nil
	}
	_, g, err := graph.BuildDJStar(gcfg)
	if err != nil {
		return nil, err
	}
	plan, err := g.Compile()
	if err != nil {
		return nil, err
	}
	costs := engine.StaticCostsUS(plan, gcfg.Scale)
	acfg := f.acfg
	if gcfg.Scale != f.cfg.Engine.Graph.Scale {
		acfg.BaseUS = engine.SessionBaseUS(gcfg.Scale)
	}
	sh := f.shards[0]
	acfg.Procs = sh.procs
	rep, err := admission.Analyze(plan, costs, sched.NamePool, sh.pool.Workers()+1, "static", acfg)
	if err != nil {
		return nil, err
	}
	f.repCache[key] = rep
	return rep, nil
}

// placeLocked probes every eligible shard with the candidate's report
// and picks the one with the most post-admission analytical headroom.
// exclude < 0 considers all shards. Caller holds f.mu. The chosen
// shard is nil when nothing fits; why then wraps sched.ErrPoolFull if
// some shard had analytical room but no free slot, else
// admission.ErrOverBudget.
func (f *Fleet) placeLocked(rep *admission.Report, exclude int, reason string) (best *Shard, p apiv1.Placement, why error) {
	p = apiv1.Placement{Shard: -1, BoundUS: rep.BoundUS, Reason: reason}
	why = admission.ErrOverBudget
	for _, sh := range f.shards {
		if sh.id == exclude || sh.draining.Load() {
			continue
		}
		h, fits := sh.ctl.Probe(rep)
		// Every attached session is registered on the controller (from
		// before Attach until after detach), so its count bounds the
		// occupied pool slots from above.
		n := sh.ctl.Len()
		if fits && n >= sh.pool.Capacity() {
			fits, why = false, sched.ErrPoolFull
		}
		c := apiv1.ShardHeadroom{Shard: sh.id, HeadroomUS: h, Fits: fits, Sessions: n}
		p.Candidates = append(p.Candidates, c)
		if !fits {
			continue
		}
		if best == nil {
			best = sh
			p.HeadroomUS = h
			continue
		}
		const eps = 1e-6
		switch {
		case h > p.HeadroomUS+eps:
			best, p.HeadroomUS = sh, h
		case h > p.HeadroomUS-eps && sh.ctl.Len() < best.ctl.Len():
			// Equal headroom: fewer sessions wins (then the lower ID,
			// implicit in iteration order).
			best, p.HeadroomUS = sh, h
		}
	}
	if best != nil {
		p.Shard = best.id
	}
	return best, p, why
}

// AddSession places and starts one session. The spec's ID must be
// unused (empty auto-assigns a fleet-scoped monotonic "s-NNNNNN"). The
// error wraps admission.ErrOverBudget when no shard has analytical
// room, sched.ErrPoolFull when every shard with room has no free slot.
func (f *Fleet) AddSession(spec engine.SessionSpec) (*Session, apiv1.Placement, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, apiv1.Placement{Shard: -1}, fmt.Errorf("fleet: AddSession after Close")
	}
	if spec.ID == "" {
		spec.ID = fmt.Sprintf("s-%06d", f.seq)
	}
	if _, dup := f.sessions[spec.ID]; dup {
		f.mu.Unlock()
		return nil, apiv1.Placement{Shard: -1}, fmt.Errorf("session %q already exists: %w", spec.ID, ErrDuplicate)
	}
	f.seq++

	gcfg := f.cfg.Engine.Graph
	if spec.Graph != nil {
		if len(spec.Graph.Tracks) == 0 {
			g := *spec.Graph
			g.Tracks = gcfg.Tracks
			spec.Graph = &g
		}
		gcfg = *spec.Graph
	}
	rep, err := f.report(gcfg)
	if err != nil {
		f.mu.Unlock()
		return nil, apiv1.Placement{Shard: -1}, err
	}
	sh, placement, why := f.placeLocked(rep, -1, "create")
	if sh == nil {
		f.mu.Unlock()
		return nil, placement, fmt.Errorf("fleet: no shard can admit session %q (bound %.0f µs): %w",
			spec.ID, rep.BoundUS, why)
	}
	if err := sh.ctl.TryAdmit(spec.ID, rep); err != nil {
		f.mu.Unlock()
		return nil, placement, err
	}

	c := spec.Resolve(f.cfg.Engine)
	c.Pool = sh.pool
	c.Strategy = sched.NamePool
	// The fleet owns admission — the engine-level gate stays out of the
	// way, and each session gets a private load-factor knob.
	c.Admission.Enabled = false
	c.Graph.LoadFactor = nil
	c.Telemetry.Session = spec.ID
	c.Telemetry.Shard = strconv.Itoa(sh.id)
	c.DisableGC = false
	eng, err := engine.New(c)
	if err != nil {
		sh.ctl.Release(spec.ID)
		f.mu.Unlock()
		return nil, placement, err
	}

	s := &Session{
		id:   spec.ID,
		eng:  eng,
		rep:  rep,
		ctl:  make(chan func()),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	s.setHeadroom(placement.HeadroomUS)
	s.shard.Store(int32(sh.id))
	f.sessions[spec.ID] = s
	f.mu.Unlock()

	go s.run(f.period)
	f.logf("place %s -> shard %d (headroom %.0f µs, bound %.0f µs, %d candidates)",
		spec.ID, sh.id, placement.HeadroomUS, rep.BoundUS, len(placement.Candidates))
	if f.cfg.OnPlacement != nil {
		f.cfg.OnPlacement(placement)
	}
	return s, placement, nil
}

// Session returns a session by ID (nil when unknown).
func (f *Fleet) Session(id string) *Session {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sessions[id]
}

// Sessions returns the live sessions sorted by ID.
func (f *Fleet) Sessions() []*Session {
	f.mu.Lock()
	out := make([]*Session, 0, len(f.sessions))
	for _, s := range f.sessions {
		out = append(out, s)
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// RemoveSession stops and releases one session.
func (f *Fleet) RemoveSession(id string) error {
	f.mu.Lock()
	s, ok := f.sessions[id]
	if ok {
		delete(f.sessions, id)
	}
	f.mu.Unlock()
	if !ok {
		return fmt.Errorf("fleet: no session %q", id)
	}
	s.close()
	f.shards[s.Shard()].ctl.Release(id)
	return nil
}

// migrate moves one session onto the best other shard at a cycle
// boundary. Caller must NOT hold f.mu.
func (f *Fleet) migrate(s *Session, exclude int) (apiv1.Placement, error) {
	f.mu.Lock()
	dst, placement, why := f.placeLocked(s.rep, exclude, "drain")
	if dst == nil {
		f.mu.Unlock()
		return placement, fmt.Errorf("fleet: no shard can absorb session %q: %w", s.id, why)
	}
	// Admit on the destination before the move; the source keeps its
	// registration until the rebind lands, so concurrent placements see
	// a conservative picture on both shards.
	if err := dst.ctl.TryAdmit(s.id, s.rep); err != nil {
		f.mu.Unlock()
		return placement, err
	}
	f.mu.Unlock()

	// The release and shard switch run with Rebind on the driver, so a
	// RemoveSession that stopped the driver reads the registered shard.
	src := f.shards[s.Shard()]
	err := s.do(func() error {
		if err := s.eng.Rebind(dst.pool); err != nil {
			return err
		}
		src.ctl.Release(s.id)
		s.shard.Store(int32(dst.id))
		s.setHeadroom(placement.HeadroomUS)
		s.eng.Telemetry().SetShard(strconv.Itoa(dst.id))
		return nil
	})
	if err != nil {
		dst.ctl.Release(s.id)
		return placement, err
	}
	f.logf("migrate %s: shard %d -> %d (headroom %.0f µs)", s.id, src.id, dst.id, placement.HeadroomUS)
	if f.cfg.OnPlacement != nil {
		f.cfg.OnPlacement(placement)
	}
	return placement, nil
}

// Drain marks a shard as refusing placements and migrates every one of
// its sessions onto the rest of the fleet at cycle boundaries. Sessions
// that no other shard can absorb stay put and are reported in the
// result; the shard remains draining either way (Undrain reverses).
func (f *Fleet) Drain(shardID int) (apiv1.DrainResponse, error) {
	res := apiv1.DrainResponse{Shard: shardID}
	if shardID < 0 || shardID >= len(f.shards) {
		return res, fmt.Errorf("fleet: no shard %d", shardID)
	}
	sh := f.shards[shardID]
	sh.draining.Store(true)
	for _, s := range f.Sessions() {
		if s.Shard() != shardID {
			continue
		}
		if _, err := f.migrate(s, shardID); err != nil {
			res.Failed++
			res.Errors = append(res.Errors, fmt.Sprintf("%s: %v", s.id, err))
			continue
		}
		res.Moved++
	}
	f.logf("drain shard %d: moved %d, failed %d", shardID, res.Moved, res.Failed)
	return res, nil
}

// Undrain reopens a drained shard for placements.
func (f *Fleet) Undrain(shardID int) error {
	if shardID < 0 || shardID >= len(f.shards) {
		return fmt.Errorf("fleet: no shard %d", shardID)
	}
	f.shards[shardID].draining.Store(false)
	return nil
}

// ShardStatus assembles the /v1 shard view, including the SLO rollup
// over the shard's current sessions.
func (f *Fleet) ShardStatus(shardID int) (apiv1.Shard, error) {
	if shardID < 0 || shardID >= len(f.shards) {
		return apiv1.Shard{}, fmt.Errorf("fleet: no shard %d", shardID)
	}
	sh := f.shards[shardID]
	st := apiv1.Shard{
		ID:         sh.id,
		CPUs:       sh.cpus,
		Workers:    sh.pool.Workers(),
		Pinned:     sh.pinned,
		Draining:   sh.draining.Load(),
		Sessions:   sh.ctl.Len(),
		HeadroomUS: sh.ctl.Headroom(),
		EnvelopeUS: sh.ctl.Envelope(),
		Bounds:     sh.ctl.Sessions(),
	}
	// Every session is built from the one engine template, so the
	// configured budget is the shard's, sessions or none.
	st.SLO.TargetPer10k = f.cfg.Engine.Telemetry.SLO.WithDefaults().TargetPer10k
	for _, s := range f.Sessions() {
		if s.Shard() != shardID {
			continue
		}
		slo := s.eng.Telemetry().SLO()
		st.SLO.Cycles += slo.TotalCycles
		st.SLO.Misses += slo.TotalMisses
		if slo.BurnRate1m > st.SLO.WorstBurn1m {
			st.SLO.WorstBurn1m = slo.BurnRate1m
		}
	}
	if st.SLO.Cycles > 0 {
		st.SLO.MissPer10k = float64(st.SLO.Misses) / float64(st.SLO.Cycles) * 1e4
	}
	st.SLO.Healthy = st.SLO.MissPer10k <= st.SLO.TargetPer10k
	return st, nil
}

// Sinks lists every live session's telemetry sink for a /metrics scrape
// (sessions carry their shard label themselves).
func (f *Fleet) Sinks() []*obs.Sink {
	sessions := f.Sessions()
	sinks := make([]*obs.Sink, len(sessions))
	for i, s := range sessions {
		sinks[i] = s.eng.Telemetry()
	}
	return sinks
}

// Close stops every session and every shard pool. Idempotent.
func (f *Fleet) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	sessions := make([]*Session, 0, len(f.sessions))
	for _, s := range f.sessions {
		sessions = append(sessions, s)
	}
	f.sessions = make(map[string]*Session)
	f.mu.Unlock()
	for _, s := range sessions {
		s.close()
	}
	for _, sh := range f.shards {
		if sh.pool != nil {
			sh.pool.Close()
		}
	}
}
