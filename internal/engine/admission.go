package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"djstar/internal/admission"
	"djstar/internal/graph"
	"djstar/internal/obs"
	"djstar/internal/sched"
)

// Admission control: the engine's front door. Before a session commits
// scheduler resources, before a staged edit is adopted, and
// periodically against the live cost model, the analytical
// schedulability bound of internal/admission is held against the packet
// period — refusing, pre-degrading or predictively shedding work whose
// bound does not fit, instead of discovering the overload as deadline
// misses. All analysis runs off-cycle (construction, the editor's
// goroutine, the monitor goroutine); the audio hot path is untouched.

// ErrUnschedulableEdit is the sentinel wrapped by ApplyEdits /
// ApplyPatch when the staged plan's analytical bound exceeds the
// deadline envelope: the edit is rejected before the swap is staged and
// the live topology keeps playing. Distinguish with errors.Is.
var ErrUnschedulableEdit = errors.New("engine: edit makes the plan unschedulable")

// AdmissionOptions configure the engine's admission gate.
type AdmissionOptions struct {
	// Enabled turns the gate on: engine.New refuses or pre-degrades
	// sessions whose bound exceeds the envelope, ApplyEdits rejects
	// unschedulable edits, and the predictive monitor feeds the governor.
	Enabled bool
	// Config parameterizes the analysis (zero value: 2.902 ms envelope,
	// 1.25 margin, default overheads; BaseUS is filled from the engine's
	// TP/GP/VC targets at the running scale when zero).
	Config admission.Config
	// PredictEvery is the predictive monitor's re-analysis period
	// (default 250 ms; negative disables the monitor, keeping only the
	// construction- and edit-time gates).
	PredictEvery time.Duration
}

// AdmissionState is the engine's published admission status, exposed
// through Snapshot (schema v3).
type AdmissionState struct {
	// Enabled mirrors AdmissionOptions.Enabled.
	Enabled bool `json:"enabled"`
	// Verdict is the construction-time decision ("admit" or "degraded";
	// refusals never construct an engine).
	Verdict string `json:"verdict"`
	// Reason is the human-readable summary of that decision.
	Reason string `json:"reason"`
	// PreShed names the rung of an admit-degraded session ("" if none).
	PreShed string `json:"pre_shed,omitempty"`
	// Report is the most recent analysis: the construction-time static
	// one until the monitor's first live refresh, then measured-cost.
	Report *admission.Report `json:"report,omitempty"`
	// OverBudget is true while the latest recomputed bound exceeds the
	// envelope (the predictive overload flag).
	OverBudget bool `json:"over_budget"`
	// PredictiveEscalations counts governor escalations taken on the
	// predictive rung (bound blown before misses).
	PredictiveEscalations int64 `json:"predictive_escalations"`
}

// admissionRuntime is the per-engine admission state: the resolved
// analysis config, the construction decision and the predictive
// monitor. It judges this session alone; sessions sharing a pool are
// admitted against each other by the fleet's shard controllers.
type admissionRuntime struct {
	cfg      admission.Config
	strategy string
	threads  int

	decision *admission.Decision

	state      atomic.Pointer[AdmissionState]
	overBudget atomic.Bool

	every time.Duration // refresh period for the engine's monitor (< 0: none)
}

// newAdmissionRuntime resolves the gate's config and decides admission
// for a session about to be constructed. A refusal returns an error
// wrapping admission.ErrOverBudget.
func newAdmissionRuntime(cfg *Config, plan *graph.Plan, threads int) (*admissionRuntime, error) {
	strategy := cfg.Strategy
	if cfg.Pool != nil {
		strategy = sched.NamePool
		threads = cfg.Pool.Workers() + 1
	}
	acfg := cfg.Admission.Config
	if acfg.BaseUS == 0 {
		// Non-graph APC work at the running scale: the TP/GP/VC targets.
		acfg.BaseUS = SessionBaseUS(cfg.Graph.Scale)
	}
	if acfg.Procs == 0 {
		// Graham's argument and the list simulations count processors:
		// the workers beyond GOMAXPROCS time-slice.
		acfg.Procs = runtime.GOMAXPROCS(0)
	}
	a := &admissionRuntime{
		cfg:      acfg,
		strategy: strategy,
		threads:  threads,
		every:    cfg.Admission.PredictEvery,
	}
	if a.every == 0 {
		a.every = 250 * time.Millisecond
	}

	costs := StaticCostsUS(plan, cfg.Graph.Scale) // nothing has run yet
	d, err := admission.Decide(plan, costs, strategy, threads, "static", acfg)
	if err != nil {
		return nil, err
	}
	a.decision = d
	if d.Verdict == admission.VerdictRefuse {
		return nil, fmt.Errorf("engine: session refused: %s: %w", d.Reason, admission.ErrOverBudget)
	}
	return a, nil
}

// install finishes the gate on a constructed engine: applies the
// admit-degraded pre-shed (through the governor when present, so level
// and shed bits stay consistent), publishes the initial state and seeds
// the telemetry gauges.
func (a *admissionRuntime) install(e *Engine) {
	if a.decision.Verdict == admission.VerdictDegraded {
		level := GovLevel(a.decision.Rung)
		if e.gov != nil {
			e.gov.force(level)
		} else {
			shedLevel(e.faults, level)
		}
	}
	st := &AdmissionState{
		Enabled: true,
		Verdict: a.decision.Verdict.String(),
		Reason:  a.decision.Reason,
		PreShed: a.decision.PreShed(),
		Report:  a.decision.Admitted,
	}
	a.state.Store(st)
	e.tel.SetAdmissionBound(st.Report.BoundUS, st.Report.HeadroomUS)
	kind := obs.Admitted
	if a.decision.Verdict == admission.VerdictDegraded {
		kind = obs.AdmittedDegraded
	}
	e.tel.Event(kind, 0, a.decision.Verdict.String()+": "+a.decision.Reason)
}

// refresh is the predictive step, run every PredictEvery by the engine's
// monitor and on demand by Engine.RefreshAdmission: it re-analyzes the
// live topology under the collector's measured cost model (static costs
// until one cycle has been observed), publishes the result (state,
// telemetry gauges) and arms the governor's predictive rung while the
// recomputed bound exceeds the envelope. Never runs on the audio path.
func (a *admissionRuntime) refresh(e *Engine) {
	topo := e.topo.Load()
	costs, source := e.nodeCosts(topo, topo.plan, nil)
	rep, err := admission.Analyze(topo.plan, costs, a.strategy, a.threads, source, a.cfg)
	if err != nil {
		return
	}
	over := !rep.Fits()

	prev := a.state.Load()
	st := &AdmissionState{Enabled: true, Report: rep, OverBudget: over}
	if prev != nil {
		st.Verdict, st.Reason, st.PreShed = prev.Verdict, prev.Reason, prev.PreShed
	}
	if e.gov != nil {
		st.PredictiveEscalations = e.gov.predictEscalates.Load()
	}
	a.state.Store(st)

	e.tel.SetAdmissionBound(rep.BoundUS, rep.HeadroomUS)
	if over {
		if e.gov != nil {
			// Re-armed every over-budget refresh: one predictive
			// escalation per governor window while the overload lasts.
			e.gov.predicted.Store(true)
		}
		if a.overBudget.CompareAndSwap(false, true) {
			// Rising edge: record the prediction once per excursion.
			e.tel.Event(obs.PredictedOverload, e.cycleN.Load(),
				fmt.Sprintf("bound %.0f µs > envelope %.0f µs (%s costs)", rep.BoundUS, rep.EnvelopeUS, source))
		}
	} else {
		a.overBudget.Store(false)
	}
}

// checkEdit analyzes a staged plan (the result of an edit) under the
// engine's current degradation rung and returns an error wrapping
// ErrUnschedulableEdit when its bound exceeds the envelope. Costs are
// the measured means of surviving nodes through the remap, static for
// fresh ones. Called with editMu held, never on the audio path.
func (a *admissionRuntime) checkEdit(e *Engine, plan *graph.Plan, remap *graph.Remap) error {
	costs, _ := e.nodeCosts(e.topo.Load(), plan, remap)
	// Judge the edit at the engine's current rung: a degraded session's
	// meters are already shed, so they cost nothing — but an edit must
	// fit WITHOUT help from deeper rungs it has not earned.
	rung := a.decision.Rung
	if e.gov != nil {
		rung = int(e.gov.Level())
	}
	rep, err := admission.Analyze(plan, admission.ShedCosts(plan, costs, rung),
		a.strategy, a.threads, "edit", a.cfg)
	if err != nil {
		return err
	}
	if rep.Fits() {
		return nil
	}
	return fmt.Errorf("bound %.0f µs > envelope %.0f µs (%d nodes): %w",
		rep.BoundUS, rep.EnvelopeUS, plan.Len(), ErrUnschedulableEdit)
}

// AdmissionState returns the engine's current admission status (nil
// when the gate is disabled). Safe from any thread.
func (e *Engine) AdmissionState() *AdmissionState {
	if e.adm == nil {
		return nil
	}
	st := e.adm.state.Load()
	if st == nil {
		return nil
	}
	cp := *st
	if e.gov != nil {
		cp.PredictiveEscalations = e.gov.predictEscalates.Load()
	}
	return &cp
}

// RefreshAdmission forces one predictive re-analysis immediately (the
// monitor does this periodically). No-op when the gate is disabled.
// Safe from any thread except the audio path.
func (e *Engine) RefreshAdmission() {
	if e.adm != nil {
		e.adm.refresh(e)
	}
}
