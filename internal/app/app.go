// Package app is the Application Facade of the paper's Fig. 2: it wires
// the four layers together — the Core (audio engine + task graph), the
// Event Middleware (UI-facing publish/subscribe bus), the Hardware Access
// layer (control surface mapping + simulated performer) and the track
// library — into one runnable application the UI layer (or a terminal
// front end like cmd/djstar) drives.
package app

import (
	"fmt"

	"djstar/internal/audio"
	"djstar/internal/engine"
	"djstar/internal/hardware"
	"djstar/internal/library"
	"djstar/internal/middleware"
	"djstar/internal/obs"
	"djstar/internal/sched"
)

// Config configures the application.
type Config struct {
	// Engine configures the audio core (graph, strategy, threads).
	Engine engine.Config
	// PerformerSeed, when nonzero, attaches a simulated performer that
	// works the controls (the stand-in for a human DJ on USB hardware).
	PerformerSeed uint64
	// AnalyzeLibrary runs offline track analysis on the loaded deck
	// tracks at startup (BPM, key, beat grid). Costs ~0.1 s per track.
	AnalyzeLibrary bool
	// PositionEvery throttles deck-position events to every n-th cycle
	// (default 16 ≈ 21 updates/s, a typical UI refresh budget).
	PositionEvery int
	// HealthEvery throttles engine-health events to every n-th cycle
	// (default 128 ≈ 2.7 updates/s).
	HealthEvery int
}

// App owns the wired-up application.
type App struct {
	// Engine is the audio core.
	Engine *engine.Engine
	// Bus is the event middleware the UI subscribes to.
	Bus *middleware.Bus
	// Library indexes the analyzed tracks.
	Library *library.Library
	// Mapping routes control events into the session.
	Mapping *hardware.Mapping

	performer     *hardware.Performer
	positionEvery int
	healthEvery   int
	cycle         int64
	lastPhase     []float64
}

// New builds the application.
func New(cfg Config) (*App, error) {
	// The bus exists before the engine so the engine's fault, governor
	// and trace hooks can publish onto it; user-supplied hooks still run.
	// The hooks capture `a` (assigned below) for the cycle stamp; they
	// can only fire from Cycle, long after New has returned.
	var a *App
	bus := middleware.New()
	ecfg := cfg.Engine
	userHooks := ecfg.Hooks
	ecfg.Hooks.OnFault = func(r sched.FaultRecord) {
		// Fires on whichever worker ran the node; Publish is thread-safe.
		bus.Publish(middleware.TopicFault, middleware.FaultEvent{
			Cycle:       r.Cycle,
			Node:        r.Name,
			Worker:      int(r.Worker),
			Err:         fmt.Sprint(r.Err),
			Quarantined: r.Quarantined,
		})
		if userHooks.OnFault != nil {
			userHooks.OnFault(r)
		}
	}
	ecfg.Hooks.OnGovChange = func(from, to engine.GovLevel) {
		// Fires on the cycle thread, like the a.cycle increment.
		var cycle int64
		if a != nil {
			cycle = a.cycle
		}
		bus.Publish(middleware.TopicDegrade, middleware.DegradeEvent{
			Cycle: cycle,
			From:  from.String(),
			To:    to.String(),
		})
		if userHooks.OnGovChange != nil {
			userHooks.OnGovChange(from, to)
		}
	}
	ecfg.Hooks.OnTopology = func(tc engine.TopologyChange) {
		// Fires on the cycle thread when a live graph edit is adopted or
		// rolled back.
		bus.Publish(middleware.TopicTopology, middleware.TopologyEvent{
			Cycle:   tc.Cycle,
			Epoch:   tc.Epoch,
			Nodes:   tc.Nodes,
			Desc:    tc.Desc,
			Applied: tc.Applied,
		})
		if userHooks.OnTopology != nil {
			userHooks.OnTopology(tc)
		}
	}
	ecfg.Hooks.OnAdmission = func(d engine.AdmissionDecision) {
		// Fires from the admission gate (construction goroutine, the
		// editor, or the predictive monitor) — including for refusals,
		// where the event lands on the bus before engine.New errors out.
		bus.Publish(middleware.TopicAdmission, middleware.AdmissionEvent{
			Cycle:      d.Cycle,
			Verdict:    d.Verdict,
			Reason:     d.Reason,
			BoundUS:    d.BoundUS,
			EnvelopeUS: d.EnvelopeUS,
			PreShed:    d.PreShed,
			Predicted:  d.Predicted,
		})
		if userHooks.OnAdmission != nil {
			userHooks.OnAdmission(d)
		}
	}
	ecfg.Hooks.OnCycle = func(ci engine.CycleInfo) {
		// Deadline misses surface immediately, from the engine's own
		// cycle record — every miss, whether or not the caller keeps a
		// run window.
		if ci.DeadlineMiss {
			bus.Publish(middleware.TopicDeadlineMiss, middleware.DeadlineMiss{
				Cycle:      int64(ci.Cycle),
				DurationMS: ci.APCMS,
				DeadlineMS: engine.DeadlineMS,
			})
		}
		if userHooks.OnCycle != nil {
			userHooks.OnCycle(ci)
		}
	}
	ecfg.Hooks.OnTrace = func(t *obs.CycleTrace) {
		// Fires on the cycle thread every sampled cycle. The engine's
		// trace buffers are reused, so copy into a fresh ScheduleTrace —
		// subscribers own the payload.
		if a == nil {
			return
		}
		st := middleware.ScheduleTrace{
			Cycle:      t.Cycle,
			Workers:    t.Workers,
			MakespanUS: float64(t.MakespanNS()) / 1e3,
			Nodes:      make([]middleware.TraceNode, 0, len(t.Worker)),
		}
		names := a.Engine.Plan().Names
		for id, w := range t.Worker {
			if w < 0 || id >= len(names) {
				continue
			}
			st.Nodes = append(st.Nodes, middleware.TraceNode{
				Name:    names[id],
				Worker:  int(w),
				StartUS: float64(t.StartNS[id]) / 1e3,
				EndUS:   float64(t.EndNS[id]) / 1e3,
			})
		}
		bus.Publish(middleware.TopicTrace, st)
		if userHooks.OnTrace != nil {
			userHooks.OnTrace(t)
		}
	}
	e, err := engine.New(ecfg)
	if err != nil {
		return nil, fmt.Errorf("app: %w", err)
	}
	a = &App{
		Engine:        e,
		Bus:           bus,
		Library:       library.New(cfg.Engine.Graph.Rate),
		Mapping:       hardware.NewMapping(e.Session()),
		positionEvery: cfg.PositionEvery,
		healthEvery:   cfg.HealthEvery,
	}
	if a.positionEvery <= 0 {
		a.positionEvery = 16
	}
	if a.healthEvery <= 0 {
		a.healthEvery = 128
	}
	if cfg.PerformerSeed != 0 {
		a.performer = hardware.NewPerformer(cfg.PerformerSeed, len(e.Session().Decks))
	}
	a.lastPhase = make([]float64, len(e.Session().Decks))

	if cfg.AnalyzeLibrary {
		for _, d := range e.Session().Decks {
			if tr := d.Track(); tr != nil {
				if _, err := a.Library.Add(tr); err != nil {
					e.Close()
					return nil, fmt.Errorf("app: %w", err)
				}
			}
		}
	}
	return a, nil
}

// Close shuts the engine down.
func (a *App) Close() { a.Engine.Close() }

// Cycle runs one audio processing cycle: apply pending control input,
// compute the packet, publish UI events. Metrics may be nil.
func (a *App) Cycle(m *engine.Metrics) {
	// Hardware input is applied between cycles, like the real app's
	// control thread handing parameter changes to the audio thread.
	if a.performer != nil {
		for _, ev := range a.performer.Next() {
			a.Mapping.Apply(ev)
			a.Bus.Publish(middleware.TopicControl, ev)
		}
	}

	a.Engine.Cycle(m)
	a.cycle++

	s := a.Engine.Session()
	// Beat events: detect beat-phase wrap per deck.
	for d, dk := range s.Decks {
		phase := dk.BeatPhase() * 4 // bars -> beats (4/4)
		beatFrac := phase - float64(int(phase))
		if beatFrac < a.lastPhase[d] && dk.Playing() {
			a.Bus.Publish(middleware.TopicBeat, middleware.Beat{Deck: d, Phase: beatFrac})
		}
		a.lastPhase[d] = beatFrac
	}

	// Throttled position + meter updates.
	if a.cycle%int64(a.positionEvery) == 0 {
		for d, dk := range s.Decks {
			a.Bus.Publish(middleware.TopicDeckPosition, middleware.DeckPosition{
				Deck:    d,
				Frames:  dk.Position(),
				Seconds: dk.Position() / float64(audio.SampleRate),
				Tempo:   dk.Tempo(),
				Playing: dk.Playing(),
			})
		}
		out := s.MasterOut()
		a.Bus.Publish(middleware.TopicMeterMaster, middleware.MeterLevels{
			Source: "master",
			Peak:   out.Peak(),
			RMS:    out.RMS(),
		})
	}

	// Throttled health report, fed from the engine's unified Snapshot:
	// governor level, fault counters, watchdog stalls, whole-run cycle
	// means, the measured critical path, and the bus's own drop totals
	// (the middleware reporting on itself — a slow consumer shows up
	// here, not as audio jitter).
	if a.cycle%int64(a.healthEvery) == 0 {
		snap := a.Engine.Snapshot()
		h := snap.Health
		drops := a.Bus.TopicDrops()
		var total int64
		for _, d := range drops {
			total += d
		}
		// Feed the bus drop total into telemetry so /metrics exposes it.
		a.Engine.Telemetry().SetBusDrops(total)
		lastEdit := ""
		if le := snap.LastEdit; le != nil {
			if le.Applied {
				lastEdit = "ok " + le.Desc
			} else {
				lastEdit = "failed " + le.Desc + ": " + le.Err
			}
		}
		rep := middleware.HealthReport{
			Cycle:           a.cycle,
			PlanEpoch:       snap.PlanEpoch,
			LastEdit:        lastEdit,
			Level:           h.Level.String(),
			LoadFactor:      h.LoadFactor,
			WindowMissRate:  h.WindowMissRate,
			FaultsRecovered: h.Faults.Recovered,
			Quarantined:     h.Quarantined,
			Stalls:          h.Stalls,
			GraphMeanMS:     snap.GraphMeanMS,
			APCMeanMS:       snap.APCMeanMS,
			MissRate:        snap.MissRate,
			BusDrops:        total,
			DropsByTopic:    drops,
		}
		if snap.CritPath != nil {
			rep.CritPathUS = snap.CritPath.LengthUS
			rep.Parallelism = snap.CritPath.Parallelism
		}
		if snap.SLO != nil {
			rep.SLOBudgetRemaining = snap.SLO.BudgetRemaining
			rep.SLOBurnRate1m = snap.SLO.BurnRate1m
			rep.SLOExhausted = snap.SLO.Exhausted
		}
		if adm := snap.Admission; adm != nil {
			rep.AdmissionVerdict = adm.Verdict
			if adm.Report != nil {
				rep.AdmissionBoundUS = adm.Report.BoundUS
				rep.AdmissionHeadroomUS = adm.Report.HeadroomUS
			}
		}
		a.Bus.Publish(middleware.TopicHealth, rep)
	}
}

// RunCycles runs n cycles and returns the metrics.
func (a *App) RunCycles(n int) *engine.Metrics {
	m := &engine.Metrics{}
	for i := 0; i < n; i++ {
		a.Cycle(m)
	}
	return m
}
