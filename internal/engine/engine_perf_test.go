//go:build perf

package engine

import (
	"sync"
	"testing"

	"djstar/internal/admission"
	"djstar/internal/graph"
	"djstar/internal/sched"
)

var admCalOnce sync.Once
var admCal graph.Calibration

// TestAdmissionPredictiveEscalation: with real node costs, cranking the
// load factor pushes the live cost model's recomputed bound over the
// envelope — and the governor escalates on the predictive rung BEFORE
// the reactive triggers (parked out of reach here) see a single miss.
func TestAdmissionPredictiveEscalation(t *testing.T) {
	admCalOnce.Do(func() { admCal = graph.Calibrate() })
	gc := graph.DefaultConfig()
	gc.TrackBars = 2
	// Scale large enough that calibrated spin work dominates the fixed
	// DSP cost even on instrumented builds (-race inflates DSP ~10×, but
	// not calibrated spinning) — so the load factor moves the bound.
	gc.Scale = 0.05
	gc.Calibration = admCal

	acfg := admission.Config{Margin: 1, BaseUS: -1}
	// Calibrate the envelope from a probe engine's MEASURED bound at
	// nominal load (the static table underestimates instrumented builds
	// like -race): nominal fits ×3, a 100× load factor cannot.
	probe, err := New(Config{Graph: gc, Strategy: sched.NameBusyWait, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	probe.RunCycles(20)
	nominal, err := admission.Analyze(probe.Plan(), probe.Collector().NodeMeansUS(),
		sched.NameBusyWait, effectiveProcs(4), "measured", acfg)
	probe.Close()
	if err != nil {
		t.Fatal(err)
	}
	acfg.PeriodUS = nominal.BoundUS * 3

	cfg := Config{
		Graph:    gc,
		Strategy: sched.NameBusyWait,
		Threads:  4,
		Governor: GovernorConfig{
			Enabled: true,
			Window:  8,
			// Park the reactive triggers out of reach: any escalation in
			// this test is the predictive rung's.
			DeadlineMS:    1e6,
			GraphBudgetMS: 1e6,
		},
		Admission: AdmissionOptions{Enabled: true, Config: acfg, PredictEvery: -1},
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.RunCycles(10) // seed the live cost model at nominal load
	e.RefreshAdmission()
	if st := e.AdmissionState(); st.OverBudget {
		t.Fatalf("over budget at nominal load: %+v", st.Report)
	}

	e.SetLoadFactor(100)
	escalated := false
	for i := 0; i < 60 && !escalated; i++ {
		e.RunCycles(8) // lifetime means climb toward 100× nominal
		e.RefreshAdmission()
		e.RunCycles(8) // at least one full governor window after arming
		escalated = e.gov.Level() >= GovDegraded1
	}
	if !escalated {
		t.Fatal("governor never escalated on the predictive rung")
	}
	st := e.AdmissionState()
	if !st.OverBudget {
		t.Fatalf("escalated but not over budget: %+v", st.Report)
	}
	if st.PredictiveEscalations < 1 {
		t.Fatalf("PredictiveEscalations = %d", st.PredictiveEscalations)
	}
	if tot := e.Telemetry().Totals(); tot.PredictedOverloads < 1 {
		t.Fatalf("PredictedOverloads = %d", tot.PredictedOverloads)
	}
	if st.Report.Source != "measured" {
		t.Fatalf("live report source = %q, want measured", st.Report.Source)
	}
}
