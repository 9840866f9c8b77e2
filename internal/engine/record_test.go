package engine

import (
	"math"
	"path/filepath"
	"testing"

	"djstar/internal/graph"
	"djstar/internal/obs"
	"djstar/internal/sched"
)

// spinConfig is fastConfig with a small time-based spin load (RunSince
// targets are wall time, so no calibration is needed): SetLoadFactor can
// then force a deadline miss deterministically — TP alone is
// 190 µs × 0.01 × factor.
func spinConfig(strategy string, threads int) Config {
	cfg := fastConfig(strategy, threads)
	cfg.Graph.Scale = 0.01
	cfg.Graph.Calibration = graph.Calibration{NanosPerUnit: 1e9}
	return cfg
}

// forceMissFactor puts TP at ≥ 3.04 ms, past the 2.902 ms deadline.
const forceMissFactor = 1600

// TestCycleReadOutsAgree: every consumer is fed from the one cycle
// record, so every read-out reports the same cycles and the same misses,
// and the two lifetimes of the one totals type — a caller's run window
// and the engine's own — hold the OnCycle stream's sums to the
// nanosecond.
func TestCycleReadOutsAgree(t *testing.T) {
	const cycles, forced = 40, 3
	for _, strategy := range []string{sched.NameSequential, sched.NamePool} {
		t.Run(strategy, func(t *testing.T) {
			var hookCycles, hookMisses uint64
			var hookNS [4]int64 // TP, GP, Graph, VC sums of the stream
			cfg := spinConfig(strategy, 2)
			cfg.Hooks.OnCycle = func(ci CycleInfo) {
				hookCycles++
				if ci.DeadlineMiss {
					hookMisses++
				}
				if ci.Cycle != hookCycles {
					t.Errorf("OnCycle cycle = %d, want %d", ci.Cycle, hookCycles)
				}
				// The record is integer nanoseconds; the ms fields convert
				// back exactly.
				ns := func(ms float64) int64 { return int64(math.Round(ms * 1e6)) }
				for i, ms := range []float64{ci.TPMS, ci.GPMS, ci.GraphMS, ci.VCMS} {
					hookNS[i] += ns(ms)
				}
				if sum := ns(ci.TPMS) + ns(ci.GPMS) + ns(ci.GraphMS) + ns(ci.VCMS); sum != ns(ci.APCMS) {
					t.Errorf("cycle %d: TP+GP+Graph+VC = %d ns, APC = %d ns", ci.Cycle, sum, ns(ci.APCMS))
				}
				if ci.DeadlineMiss != (ci.APCMS > DeadlineMS) {
					t.Errorf("cycle %d: DeadlineMiss = %v at APC %.4f ms", ci.Cycle, ci.DeadlineMiss, ci.APCMS)
				}
			}
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			var m Metrics
			for i := 1; i <= cycles; i++ {
				if i%10 == 0 && i/10 <= forced {
					e.SetLoadFactor(forceMissFactor)
				}
				e.Cycle(&m)
				e.SetLoadFactor(1)
			}

			snap, tot, slo := e.Snapshot(), e.Telemetry().Totals(), e.Telemetry().SLO()
			for name, got := range map[string]uint64{
				"Snapshot.Cycles": snap.Cycles, "Totals.Cycles": tot.Cycles, "SLO.TotalCycles": slo.TotalCycles,
				"Metrics.Cycles": m.Cycles(), "OnCycle calls": hookCycles,
			} {
				if got != cycles {
					t.Errorf("%s = %d, want %d", name, got, cycles)
				}
			}
			// An unforced cycle may also miss on a busy host; what must hold
			// is that every read-out counts the same ones.
			if hookMisses < forced {
				t.Errorf("misses = %d, want ≥ %d forced", hookMisses, forced)
			}
			for name, got := range map[string]uint64{
				"Snapshot.DeadlineMisses": snap.DeadlineMisses, "Totals.DeadlineMisses": tot.DeadlineMisses,
				"SLO.TotalMisses": slo.TotalMisses, "Metrics.Misses": m.Misses(),
			} {
				if got != hookMisses {
					t.Errorf("%s = %d, OnCycle saw %d misses", name, got, hookMisses)
				}
			}
			if got := [4]int64{m.tpNS.Load(), m.gpNS.Load(), m.graphNS.Load(), m.vcNS.Load()}; got != hookNS {
				t.Errorf("window stage sums %v ns, OnCycle stream %v ns", got, hookNS)
			}
			// The window was open from cycle 1: lifetime minus window is zero.
			life := e.Totals()
			for name, d := range map[string]int64{
				"cycles": int64(life.Cycles() - m.Cycles()), "misses": int64(life.Misses() - m.Misses()),
				"tp": life.tpNS.Load() - m.tpNS.Load(), "gp": life.gpNS.Load() - m.gpNS.Load(),
				"graph": life.graphNS.Load() - m.graphNS.Load(), "vc": life.vcNS.Load() - m.vcNS.Load(),
				"graph max": life.graphMaxNS.Load() - m.graphMaxNS.Load(), "apc max": life.apcMaxNS.Load() - m.apcMaxNS.Load(),
			} {
				if d != 0 {
					t.Errorf("lifetime − window %s = %d, want 0", name, d)
				}
			}
			if want := snap.TPMeanMS + snap.GPMeanMS + snap.GraphMeanMS + snap.VCMeanMS; math.Abs(snap.APCMeanMS-want) > 1e-9 {
				t.Errorf("snapshot APC mean %.9f ms != component means %.9f ms", snap.APCMeanMS, want)
			}
		})
	}
}

// TestIncidentTracesIndexBundledGraph: a bundle dumped after a structural
// edit carries traces of the bundled graph's epoch, not of the plan the
// edit replaced.
func TestIncidentTracesIndexBundledGraph(t *testing.T) {
	dir := t.TempDir()
	cfg := fastConfig(sched.NameBusyWait, 2)
	cfg.Obs.TraceEvery = 1
	cfg.Telemetry.IncidentDir = dir
	// Keep the timing-dependent deadline-budget trigger (and its dump
	// cooldown) out of the way of the explicit trigger below.
	cfg.Telemetry.SLO = obs.SLOConfig{TargetPer10k: 10000}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.RunCycles(20)
	before := e.Plan().Len()
	if err := e.ApplyPatch("insert-delay:A:2"); err != nil {
		t.Fatal(err)
	}
	e.RunCycles(3)
	if e.PlanEpoch() != 1 || e.Plan().Len() == before {
		t.Fatalf("edit not adopted: epoch %d, %d nodes", e.PlanEpoch(), e.Plan().Len())
	}
	e.Telemetry().Event(obs.Stall, e.Cycles(), "")
	e.Close() // flushes the dump

	paths, _ := filepath.Glob(filepath.Join(dir, "incident-*.json"))
	if len(paths) != 1 {
		t.Fatalf("dumped %d bundles, want 1", len(paths))
	}
	inc, err := obs.LoadIncident(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(inc.Graph.Names) != e.Plan().Len() {
		t.Fatalf("bundled graph has %d nodes, live plan %d", len(inc.Graph.Names), e.Plan().Len())
	}
	if len(inc.Traces) == 0 {
		t.Fatal("bundle has no traces (3 post-edit cycles at TraceEvery 1)")
	}
	for i, tr := range inc.Traces {
		if len(tr.Worker) != len(inc.Graph.Names) {
			t.Errorf("trace %d covers %d nodes, bundled graph has %d", i, len(tr.Worker), len(inc.Graph.Names))
		}
	}
}
