package engine

import (
	"errors"
	"regexp"
	"strconv"
	"testing"

	"djstar/internal/admission"
	"djstar/internal/graph"
	"djstar/internal/rescon"
	"djstar/internal/sched"
)

// freeCal makes spin bodies effectively free: one spin unit is declared
// to take a full second, so any µs-scale cost target rounds to zero
// units. Execution costs nothing while the admission math still sees
// the full paper cost table at Scale — letting tests pin the gate's
// analytical decisions without burning real CPU time.
var freeCal = graph.Calibration{NanosPerUnit: 1e9}

func admissionGraphConfig() graph.Config {
	gc := graph.DefaultConfig()
	gc.TrackBars = 2
	gc.Scale = 1
	gc.Calibration = freeCal
	return gc
}

// staticReports computes the gate's own construction-time analysis for
// a config: the full-plan report and the rung-1 (meters+control shed)
// report, at the same effective processor count the engine will use.
func staticReports(t *testing.T, gc graph.Config, strategy string, threads int, acfg admission.Config) (full, shed1 *admission.Report) {
	t.Helper()
	_, g, err := graph.BuildDJStar(gc)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	costs := StaticCostsUS(plan, gc.Scale)
	procs := effectiveProcs(threads)
	full, err = admission.Analyze(plan, costs, strategy, procs, "static", acfg)
	if err != nil {
		t.Fatal(err)
	}
	shed1, err = admission.Analyze(plan, admission.ShedCosts(plan, costs, 1),
		strategy, procs, "static", acfg)
	if err != nil {
		t.Fatal(err)
	}
	return full, shed1
}

// TestAdmissionRefusesOverBudgetSession: an envelope no rung can meet
// refuses the session at construction — typed sentinel, no engine, and
// an error that names the bound it held above the envelope.
func TestAdmissionRefusesOverBudgetSession(t *testing.T) {
	cfg := fastConfig(sched.NameBusyWait, 4)
	cfg.Graph = admissionGraphConfig()
	cfg.Admission = AdmissionOptions{
		Enabled: true,
		Config:  admission.Config{PeriodUS: 1, Margin: 1, BaseUS: -1},
	}
	e, err := New(cfg)
	if err == nil {
		e.Close()
		t.Fatal("over-budget session admitted")
	}
	if !errors.Is(err, admission.ErrOverBudget) {
		t.Fatalf("err = %v, want ErrOverBudget", err)
	}
	if bound, env := boundAndEnvelope(t, err.Error()); bound <= env {
		t.Fatalf("refusal carries bound %v <= envelope %v: %v", bound, env, err)
	}
}

// boundAndEnvelope reads the "bound <b> µs … envelope <e> µs" pair every
// admission refusal text carries.
func boundAndEnvelope(t *testing.T, msg string) (bound, envelope float64) {
	t.Helper()
	m := regexp.MustCompile(`bound (\d+) µs.*?envelope (\d+) µs`).FindStringSubmatch(msg)
	if m == nil {
		t.Fatalf("%q names no bound and envelope", msg)
	}
	bound, _ = strconv.ParseFloat(m[1], 64)
	envelope, _ = strconv.ParseFloat(m[2], 64)
	return bound, envelope
}

// TestAdmissionAdmitsWithinEnvelope: a roomy envelope admits cleanly;
// the state is published through AdmissionState and Snapshot v3.
func TestAdmissionAdmitsWithinEnvelope(t *testing.T) {
	cfg := fastConfig(sched.NameBusyWait, 4)
	cfg.Graph = admissionGraphConfig()
	cfg.Admission = AdmissionOptions{
		Enabled:      true,
		Config:       admission.Config{PeriodUS: 1e9, Margin: 1, BaseUS: -1},
		PredictEvery: -1,
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	st := e.AdmissionState()
	if st == nil || !st.Enabled || st.Verdict != "admit" || st.PreShed != "" {
		t.Fatalf("state = %+v", st)
	}
	if st.Report == nil || !st.Report.Fits() || st.Report.Source != "static" {
		t.Fatalf("report = %+v", st.Report)
	}
	e.RunCycles(5)
	snap := e.Snapshot()
	if snap.SchemaVersion != 4 || snap.Admission == nil || snap.Admission.Verdict != "admit" {
		t.Fatalf("snapshot admission = %+v (schema %d)", snap.Admission, snap.SchemaVersion)
	}
	tot := e.Telemetry().Totals()
	if b, h := tot.AdmissionBoundUS, tot.AdmissionHeadroom; b != st.Report.BoundUS || h != st.Report.HeadroomUS {
		t.Fatalf("telemetry gauges %v/%v, want %v/%v", b, h, st.Report.BoundUS, st.Report.HeadroomUS)
	}
}

// TestAdmissionDegradedPreSheds: an envelope between the rung-1 bound
// and the full bound admits the session degraded — the governor is
// forced to degraded1 before the first cycle, meters and control
// already shed.
func TestAdmissionDegradedPreSheds(t *testing.T) {
	acfg := admission.Config{Margin: 1, BaseUS: -1}
	full, shed1 := staticReports(t, admissionGraphConfig(), sched.NameBusyWait, 4, acfg)
	if shed1.BoundUS >= full.BoundUS {
		t.Fatalf("shed bound %v not below full bound %v — no degradation window", shed1.BoundUS, full.BoundUS)
	}
	acfg.PeriodUS = (shed1.BoundUS + full.BoundUS) / 2

	cfg := fastConfig(sched.NameBusyWait, 4)
	cfg.Graph = admissionGraphConfig()
	cfg.Governor.Enabled = true
	cfg.Admission = AdmissionOptions{Enabled: true, Config: acfg, PredictEvery: -1}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	st := e.AdmissionState()
	if st == nil || st.Verdict != "degraded" || st.PreShed != "meters+control" {
		t.Fatalf("state = %+v", st)
	}
	if lvl := e.gov.Level(); lvl != GovDegraded1 {
		t.Fatalf("governor at %v, want degraded1", lvl)
	}
	if tot := e.Telemetry().Totals(); tot.AdmissionDegrades != 1 {
		t.Fatalf("AdmissionDegrades = %d", tot.AdmissionDegrades)
	}
	e.RunCycles(5)
}

// TestAdmissionPoolAggregate: sessions on one shared pool are gated one
// by one — the engine judges only its own session, so an envelope that
// fits two sessions in aggregate still admits a third engine — while the
// static reports they publish compose into the AGGREGATE bound a shard
// controller holds: summed there, the same envelope refuses the third
// with the typed sentinel and keeps only the two admitted registrations.
func TestAdmissionPoolAggregate(t *testing.T) {
	gc := admissionGraphConfig()
	const workers = 1
	acfg := admission.Config{Margin: 1, BaseUS: -1}
	rep, _ := staticReports(t, gc, sched.NamePool, workers+1, acfg)
	m := float64(effectiveProcs(workers + 1))
	w, cp := rep.TotalWorkUS, rep.CritPathUS
	// Controller bound for k identical sessions: CP + (k·W − CP)/m.
	b2 := cp + (2*w-cp)/m
	b3 := cp + (3*w-cp)/m
	acfg.PeriodUS = (b2 + b3) / 2

	cfg := Config{Graph: gc, Admission: AdmissionOptions{Enabled: true, Config: acfg, PredictEvery: -1}}
	// Each session alone fits; poolSessions fails the test otherwise.
	_, engines := poolSessions(t, cfg, 3, workers, 3)

	// Like the per-session gate, the shared controller counts processors,
	// not workers.
	ctl := admission.NewController(effectiveProcs(workers+1), acfg)
	for i, e := range engines {
		st := e.AdmissionState()
		if st == nil || st.Verdict != "admit" || st.Report == nil {
			t.Fatalf("session %d: state = %+v", i, st)
		}
		if st.Report.TotalWorkUS != w || st.Report.CritPathUS != cp {
			t.Fatalf("session %d publishes work %v cp %v, want the pool-shaped static %v/%v",
				i, st.Report.TotalWorkUS, st.Report.CritPathUS, w, cp)
		}
		err := ctl.TryAdmit(strconv.Itoa(i), st.Report)
		if i < 2 && err != nil {
			t.Fatalf("session %d refused in aggregate: %v", i, err)
		}
		if i == 2 && !errors.Is(err, admission.ErrOverBudget) {
			t.Fatalf("third session aggregate err = %v, want ErrOverBudget", err)
		}
	}
	if got := ctl.Len(); got != 2 {
		t.Fatalf("controller holds %d sessions after refusal, want 2", got)
	}
	for _, sb := range ctl.Sessions() {
		if !sb.Fits {
			t.Fatalf("admitted session over budget: %+v", sb)
		}
	}
	for _, mm := range runConcurrent(engines, 5) {
		if mm.Cycles() != 5 {
			t.Fatalf("cycles = %d", mm.Cycles())
		}
	}
}

// TestAdmissionRejectsUnschedulableEdit: an edit that would push the
// staged plan's bound over the envelope is refused before the swap —
// typed sentinel, epoch untouched, live topology keeps playing — while
// a shrinking edit still lands.
func TestAdmissionRejectsUnschedulableEdit(t *testing.T) {
	acfg := admission.Config{Margin: 1, BaseUS: -1}
	full, _ := staticReports(t, admissionGraphConfig(), sched.NameBusyWait, 4, acfg)
	acfg.PeriodUS = full.BoundUS + 1 // fits, with no room for growth

	cfg := fastConfig(sched.NameBusyWait, 4)
	cfg.Graph = admissionGraphConfig()
	cfg.Admission = AdmissionOptions{Enabled: true, Config: acfg, PredictEvery: -1}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// No cycles run: the edit is judged on static costs, like the
	// construction decision it must stay consistent with.
	base := e.Plan().Len()
	err = e.ApplyPatch("insert-delay:A:8")
	if !errors.Is(err, ErrUnschedulableEdit) {
		t.Fatalf("err = %v, want ErrUnschedulableEdit", err)
	}
	// Refused synchronously: nothing staged, no cycle needed to confirm
	// (and none run — the edit gate must judge on static costs, like the
	// construction decision it stays consistent with).
	if e.PlanEpoch() != 0 || e.Plan().Len() != base {
		t.Fatalf("refused edit changed topology: epoch %d, %d nodes", e.PlanEpoch(), e.Plan().Len())
	}
	le := e.LastEdit()
	if le == nil || le.Applied || le.Err == "" || le.Desc != "insert-delay:A:8" {
		t.Fatalf("LastEdit = %+v", le)
	}
	if bound, env := boundAndEnvelope(t, le.Err); bound <= env {
		t.Fatalf("refused edit carries bound %v <= envelope %v", bound, env)
	}
	if tot := e.Telemetry().Totals(); tot.RefusedEdits != 1 {
		t.Fatalf("RefusedEdits = %d", tot.RefusedEdits)
	}

	// Shedding work instead: fits, stages, adopts.
	if err := e.ApplyPatch("drop-node:MeterA"); err != nil {
		t.Fatalf("shrinking edit refused: %v", err)
	}
	e.Cycle(nil)
	if e.PlanEpoch() != 1 || e.Plan().Len() != base-1 {
		t.Fatalf("shrinking edit not adopted: epoch %d, %d nodes", e.PlanEpoch(), e.Plan().Len())
	}
	e.RunCycles(5)
}

// TestAdmissionPredictiveArming pins the wiring from the live cost model
// to the governor's predictive rung without asserting any measured band:
// at a vanishing Scale (and dispatch overheads to match) the static table
// admits the session under a 1 µs envelope, while the measured critical path of the real DSP kernels
// cannot fit it on any machine — so one refresh after the first cycles
// must report over-budget from measured costs and arm the governor, and
// the next window boundary must escalate with the reactive triggers
// parked out of reach. (The governor's side of the rung is pinned
// deterministically in TestGovernorPredictiveRung; the version that
// drives the bound over a calibrated envelope with the load factor is
// perf-tagged, TestAdmissionPredictiveEscalation.)
func TestAdmissionPredictiveArming(t *testing.T) {
	gc := admissionGraphConfig()
	gc.Scale = 1e-6
	e, err := New(Config{
		Graph:    gc,
		Strategy: sched.NameBusyWait,
		Threads:  4,
		Governor: GovernorConfig{Enabled: true, Window: 8, DeadlineMS: 1e6, GraphBudgetMS: 1e6},
		Admission: AdmissionOptions{
			Enabled: true,
			Config: admission.Config{PeriodUS: 1, Margin: 1, BaseUS: -1,
				Overheads: rescon.StrategyOverheads{CheckUS: 1e-3, WakeUS: 1e-3}},
			PredictEvery: -1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if st := e.AdmissionState(); st.Verdict != "admit" || st.OverBudget {
		t.Fatalf("static admission = %q over=%v (%+v)", st.Verdict, st.OverBudget, st.Report)
	}
	e.RunCycles(8)
	e.RefreshAdmission()
	st := e.AdmissionState()
	if !st.OverBudget || st.Report.Source != "measured" {
		t.Fatalf("after refresh: over=%v source=%q (%+v)", st.OverBudget, st.Report.Source, st.Report)
	}
	if !e.gov.predicted.Load() {
		t.Fatal("over-budget refresh did not arm the predictive rung")
	}
	e.RunCycles(8) // one full governor window
	if got := e.GovLevel(); got != GovDegraded1 {
		t.Fatalf("level one window after arming = %v, want degraded1", got)
	}
	e.RefreshAdmission()
	if got := e.AdmissionState().PredictiveEscalations; got != 1 {
		t.Fatalf("PredictiveEscalations = %d, want 1", got)
	}
	if tot := e.Telemetry().Totals(); tot.PredictedOverloads != 1 {
		t.Fatalf("PredictedOverloads = %d, want 1 (rising edge only)", tot.PredictedOverloads)
	}
}

// TestAdmissionZeroAllocCycle: the gate must add ZERO allocations to
// the audio hot path — all analysis runs off-cycle. Compared against an
// identical engine with the gate disabled, not an absolute zero, so the
// assertion survives unrelated baseline drift.
func TestAdmissionZeroAllocCycle(t *testing.T) {
	cycleAllocs := func(enabled bool) float64 {
		cfg := Config{
			Graph:    admissionGraphConfig(),
			Strategy: sched.NameBusyWait,
			Threads:  4,
		}
		if enabled {
			cfg.Admission = AdmissionOptions{
				Enabled:      true,
				Config:       admission.Config{PeriodUS: 1e9},
				PredictEvery: -1, // no monitor goroutine polluting the count
			}
		}
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		for i := 0; i < 20; i++ {
			e.Cycle(nil)
		}
		return testing.AllocsPerRun(100, func() { e.Cycle(nil) })
	}
	off, on := cycleAllocs(false), cycleAllocs(true)
	if on > off {
		t.Fatalf("admission adds allocations to the hot path: %v/cycle with gate, %v without", on, off)
	}
}
