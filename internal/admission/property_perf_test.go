//go:build perf

package admission

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"djstar/internal/graph"
	"djstar/internal/obs"
	"djstar/internal/rescon"
	"djstar/internal/sched"
)

// The falsifiability contract of the analytical bound: on seeded random
// DAGs executed for real by every parallel strategy, the measured mean
// makespan must never exceed the bound computed from the measured node
// costs. The overhead parameters are deliberately generous (the suite
// runs under -race, which inflates every dispatch), but the formula is
// exactly the production one — a modelling error in Graham's argument
// or the strategy simulations fails this suite, not just a dashboard.
//
// Note: this builds its own random DAGs with graph.Spin bodies instead
// of graph.RandomDAG — RandomDAG's nodes record an ExecTrace that
// panics on re-execution, so it cannot be cycled repeatedly.

var calOnce sync.Once
var calVal graph.Calibration

func calib() graph.Calibration {
	calOnce.Do(func() { calVal = graph.Calibrate() })
	return calVal
}

// randomSpinDAG builds a seeded random DAG of n nodes whose bodies spin
// for the returned per-node costs (µs). Edges go low ID → high ID, so
// the graph is acyclic by construction.
func randomSpinDAG(t *testing.T, rng *rand.Rand, n int) (*graph.Graph, []float64) {
	t.Helper()
	cal := calib()
	g := graph.New()
	costs := make([]float64, n)
	for i := 0; i < n; i++ {
		us := 10 + rng.Float64()*20 // 10–30 µs: work dominates dispatch
		costs[i] = us
		units := cal.UnitsForMicros(us)
		g.AddNode(fmt.Sprintf("R%d", i), graph.SectionMaster, func() { graph.Spin(units) })
	}
	for i := 1; i < n; i++ {
		// Each node gets 1–3 predecessors among earlier nodes, giving a
		// connected mix of chains and fan-outs.
		for _, p := range rng.Perm(i)[:min(1+rng.Intn(3), i)] {
			if err := g.AddEdge(p, i); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g, costs
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestBoundNeverExceededByMeasuredMakespan(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time property suite")
	}
	strategies := []string{
		sched.NameBusyWait, sched.NameSleep, sched.NameSleepScan,
		sched.NameStatic, sched.NameWorkSteal,
	}
	// Generous dispatch/wake overheads: the suite runs under -race,
	// which multiplies every atomic claim and futex wake.
	cfg := Config{
		PeriodUS: 1e9, // the assertion is against BoundUS, not the envelope
		Margin:   1.5,
		BaseUS:   -1,
		Overheads: rescon.StrategyOverheads{
			CheckUS: 3,
			WakeUS:  60,
		},
	}
	// Graham's argument is about processors, not workers: the workers
	// beyond GOMAXPROCS time-slice, as the engine's gate assumes too.
	procs := runtime.GOMAXPROCS(0)
	cfg.Procs = procs
	const warmup, measured = 10, 60
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, costs := randomSpinDAG(t, rng, 8+rng.Intn(25))
		plan, err := g.Compile()
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range strategies {
			// A static list executor with more workers than processors has
			// no bound (DESIGN.md §15): Analyze itself says so, and such a
			// cell is not run. The last count only asserts the verdict on
			// any host.
			for i, threads := range []int{2, 4, procs + 1} {
				name := fmt.Sprintf("seed%d/%s/%d", seed, strat, threads)
				rep, err := Analyze(plan, costs, strat, threads, "static", cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got, want := rep.Unboundable != "", strat != sched.NameWorkSteal && threads > procs; got != want || got && rep.Fits() {
					t.Errorf("%s on %d processors: unboundable %v, want %v: %v", name, procs, got, want, rep)
				}
				if rep.Unboundable != "" || i == 2 {
					t.Logf("%s: not run: %v", name, rep)
					continue
				}
				col := obs.NewCollector(plan, obs.Config{Workers: threads, TraceEvery: -1})
				s, err := sched.New(strat, plan, sched.Options{Threads: threads, Observer: col})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for i := 0; i < warmup; i++ {
					s.Execute()
				}
				var total time.Duration
				for i := 0; i < measured; i++ {
					t0 := time.Now()
					s.Execute()
					total += time.Since(t0)
				}
				meanUS := total.Seconds() * 1e6 / measured
				// The bound from the very costs this run measured: the
				// strongest falsification the formula can face.
				rep, err = Analyze(plan, col.NodeMeansUS(), strat, threads, "measured", cfg)
				s.Close()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				t.Logf("%s: measured %.1f µs, bound %.1f µs (sim %.1f, graham %.1f)", name, meanUS, rep.BoundUS, rep.SimUS, rep.GrahamUS)
				if meanUS > rep.BoundUS {
					t.Errorf("%s: measured mean makespan %.1f µs EXCEEDS analytical bound %.1f µs (cp %.1f, work %.1f, graham %.1f, sim %.1f)",
						name, meanUS, rep.BoundUS, rep.CritPathUS, rep.TotalWorkUS, rep.GrahamUS, rep.SimUS)
				}
				// Internal consistency regardless of the machine.
				if rep.GraphBoundUS < rep.CritPathUS {
					t.Errorf("%s: bound %v below critical path %v", name, rep.GraphBoundUS, rep.CritPathUS)
				}
			}
		}
	}
}
