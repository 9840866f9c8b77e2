//go:build perf

package exp

import (
	"io"
	"testing"

	"djstar/internal/engine"
)

// TestGovernor asserts the degradation demo: under a synthetic overload
// the governed engine sheds into a degraded level, misses the derived
// deadline less often than the ungoverned one, and returns to normal
// once the overload is removed.
func TestGovernor(t *testing.T) {
	res, err := Governor(Quick(io.Discard))
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxLevel <= engine.GovNormal {
		t.Errorf("max level = %v, want a degraded level under overload", res.MaxLevel)
	}
	if res.FinalLevel != engine.GovNormal {
		t.Errorf("final level = %v, want normal after recovery", res.FinalLevel)
	}
	if res.UngovernedMissRate == 0 {
		t.Fatal("ungoverned run missed nothing — the demo deadline does not bind")
	}
	if res.GovernedMissRate >= res.UngovernedMissRate {
		t.Errorf("governed miss rate %.3f >= ungoverned %.3f — shedding bought nothing",
			res.GovernedMissRate, res.UngovernedMissRate)
	}
}

// TestFig4MeasuredBands: with node durations measured at paper scale the
// §IV figures land near the paper's (295 µs critical path, 33
// processors, 324 µs on 4 cores, ~1.2 ms of sequential work). Measured
// durations inflate over the targets (real DSP + timer overhead, and
// whatever the host preempts), so the bands are generous — and wall-clock,
// hence perf-tagged.
func TestFig4MeasuredBands(t *testing.T) {
	o := Quick(io.Discard)
	o.Cycles = 200
	o.Scale = 1.0
	res, err := Fig4(o)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Measured
	if m.CriticalPathUS < 250 || m.CriticalPathUS > 420 {
		t.Errorf("critical path %v µs, want ~295", m.CriticalPathUS)
	}
	if m.PeakConcurrency != 33 {
		t.Errorf("peak concurrency %d, want 33", m.PeakConcurrency)
	}
	if m.ListUS[4] > m.CriticalPathUS*1.35 {
		t.Errorf("4-core %v too far above critical path %v (paper: +8%%)",
			m.ListUS[4], m.CriticalPathUS)
	}
	if m.SequentialUS < 1000 || m.SequentialUS > 1700 {
		t.Errorf("sequential work %v µs, want ~1200", m.SequentialUS)
	}
}

// TestFig12MeasuredAboveSimulation: the measured BUSY graph time pays
// thread management and dependency checks the simulation leaves out
// (paper: 452 vs 327 µs), so it should not come in below the simulated
// makespan. With a core per thread the two are close enough that a
// wall-clock reading decides it, hence perf-tagged.
func TestFig12MeasuredAboveSimulation(t *testing.T) {
	o := Quick(io.Discard)
	o.Cycles = 150
	o.Scale = 1.0
	res, err := Fig12(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeasuredBusyUS < res.SimBusyUS {
		t.Errorf("measured BUSY %v below simulation %v", res.MeasuredBusyUS, res.SimBusyUS)
	}
}
