// Package djstar's root benchmark suite: one testing.B benchmark per
// table and figure of the paper's evaluation (see EXPERIMENTS.md for the
// mapping and djbench for the full-length reproduction with reports).
//
// Each benchmark measures the natural unit behind its artifact — an APC
// cycle under a given strategy/thread count for Table I and Figs. 8–11,
// a schedule simulation for Fig. 4/12 — so `go test -bench=. -benchmem`
// doubles as a regression harness for the hot paths (ns/op and 0 B/op).
package djstar

import (
	"fmt"
	"sync"
	"testing"

	"djstar/internal/engine"
	"djstar/internal/exp"
	"djstar/internal/graph"
	"djstar/internal/rescon"
	"djstar/internal/sched"
	"djstar/internal/stats"
)

// benchScale is the node-cost scale for benchmark engines. A small
// non-zero scale keeps the paper's cost *shape* (bimodal FX, long chains)
// while letting b.N iterations finish quickly on any host.
const benchScale = 0.1

func benchGraphConfig() graph.Config {
	cfg := graph.DefaultConfig()
	cfg.TrackBars = 4
	cfg.Scale = benchScale
	cfg.Calibration = exp.Calib()
	return cfg
}

func newBenchEngine(b *testing.B, strategy string, threads int) *engine.Engine {
	b.Helper()
	e, err := engine.New(engine.Config{
		Graph:    benchGraphConfig(),
		Strategy: strategy,
		Threads:  threads,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(e.Close)
	for i := 0; i < 20; i++ {
		e.Cycle(nil) // warm up delay lines, page in buffers
	}
	return e
}

// BenchmarkTable1 measures one APC cycle per iteration for every cell of
// Table I: the three parallel strategies across 1..4 threads, plus the
// sequential baseline the speedups are computed against.
func BenchmarkTable1(b *testing.B) {
	b.Run("seq/threads=1", func(b *testing.B) {
		e := newBenchEngine(b, sched.NameSequential, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Cycle(nil)
		}
	})
	for _, strategy := range []string{sched.NameBusyWait, sched.NameSleep, sched.NameWorkSteal} {
		for threads := 1; threads <= 4; threads++ {
			b.Run(fmt.Sprintf("%s/threads=%d", strategy, threads), func(b *testing.B) {
				e := newBenchEngine(b, strategy, threads)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.Cycle(nil)
				}
			})
		}
	}
}

// BenchmarkFig4 measures the §IV schedule computations: the earliest-start
// relaxation and the 4-processor list schedule over the standard graph.
func BenchmarkFig4(b *testing.B) {
	cfg := benchGraphConfig()
	durs, plan, err := engine.MeasureNodeDurations(cfg, 50)
	if err != nil {
		b.Fatal(err)
	}
	m, err := rescon.FromPlan(plan, durs)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("earliest-start", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := m.EarliestStart()
			if r.MakespanUS <= 0 {
				b.Fatal("zero makespan")
			}
		}
	})
	b.Run("list-schedule-4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m.ListSchedule(4); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig8 measures the speedup-relevant configurations of Fig. 8
// head to head: graph execution only (no TP/GP/VC), sequential vs the
// three strategies at 4 threads.
func BenchmarkFig8(b *testing.B) {
	for _, strategy := range sched.Strategies {
		threads := 4
		if strategy == sched.NameSequential {
			threads = 1
		}
		b.Run(fmt.Sprintf("graph-only/%s", strategy), func(b *testing.B) {
			session, g, err := graph.BuildDJStar(benchGraphConfig())
			if err != nil {
				b.Fatal(err)
			}
			plan, err := g.Compile()
			if err != nil {
				b.Fatal(err)
			}
			s, err := sched.New(strategy, plan, sched.Options{Threads: threads})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			session.Prepare()
			s.Execute()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				session.Prepare()
				s.Execute()
			}
		})
	}
}

// BenchmarkFig9Fig10 measures the per-cycle cost of the histogram
// collection path behind Figs. 9/10 (cycle + sample + bin).
func BenchmarkFig9Fig10(b *testing.B) {
	e := newBenchEngine(b, sched.NameBusyWait, 4)
	h := stats.MustHistogram(0, 10, 30)
	var m engine.Metrics
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Cycle(&m)
		h.Add(m.GraphMeanMS())
	}
}

// BenchmarkFig11 measures a fully traced cycle (the schedule-realization
// capture behind Fig. 11): the observability collector samples every
// cycle into its trace ring.
func BenchmarkFig11(b *testing.B) {
	for _, strategy := range []string{sched.NameBusyWait, sched.NameSleep, sched.NameWorkSteal} {
		b.Run(strategy, func(b *testing.B) {
			e, err := engine.New(engine.Config{
				Graph:    benchGraphConfig(),
				Strategy: strategy,
				Threads:  4,
				Obs:      engine.ObsOptions{TraceEvery: 1, TraceRing: 1},
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(e.Close)
			for i := 0; i < 20; i++ {
				e.Cycle(nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Cycle(nil)
			}
			b.StopTimer()
			if ts := e.Collector().Traces(); len(ts) != 1 || ts[0].MakespanNS() <= 0 {
				b.Fatal("empty trace")
			}
		})
	}
}

// BenchmarkFig12 measures the BUSY/SLEEP strategy simulations of Fig. 12.
func BenchmarkFig12(b *testing.B) {
	cfg := benchGraphConfig()
	durs, plan, err := engine.MeasureNodeDurations(cfg, 50)
	if err != nil {
		b.Fatal(err)
	}
	m, err := rescon.FromPlan(plan, durs)
	if err != nil {
		b.Fatal(err)
	}
	lists := plan.RoundRobinLists(4)
	b.Run("simulate-busy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m.Simulate(lists, rescon.StrategyOverheads{CheckUS: 0.5}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("simulate-sleep", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m.Simulate(lists, rescon.StrategyOverheads{CheckUS: 0.5, WakeUS: 10}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDeadlines measures the full APC (TP+GP+Graph+VC) with deadline
// accounting — the unit behind the §VI miss-rate experiment.
func BenchmarkDeadlines(b *testing.B) {
	e := newBenchEngine(b, sched.NameBusyWait, 4)
	var m engine.Metrics
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Cycle(&m)
	}
	b.StopTimer()
	b.ReportMetric(float64(m.Misses()), "misses")
}

// BenchmarkProfile measures the sequential APC used for the §III-B/§VI
// component breakdown.
func BenchmarkProfile(b *testing.B) {
	e := newBenchEngine(b, sched.NameSequential, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Cycle(nil)
	}
}

// BenchmarkThreadSweep extends Table I beyond four threads (the paper's
// "more threads do not help" observation).
func BenchmarkThreadSweep(b *testing.B) {
	for _, threads := range []int{1, 2, 4, 6, 8} {
		b.Run(fmt.Sprintf("busy/threads=%d", threads), func(b *testing.B) {
			e := newBenchEngine(b, sched.NameBusyWait, threads)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Cycle(nil)
			}
		})
	}
}

// BenchmarkAblationWS measures the work-stealing design variants (§V-C):
// locality vs round-robin seeding, Chase-Lev vs locked deques.
func BenchmarkAblationWS(b *testing.B) {
	variants := map[string]sched.WSOptions{
		"locality-lockfree": {},
		"roundrobin-init":   {RoundRobinInit: true},
		"locked-deque":      {LockedDeque: true},
	}
	for name, opts := range variants {
		b.Run(name, func(b *testing.B) {
			session, g, err := graph.BuildDJStar(benchGraphConfig())
			if err != nil {
				b.Fatal(err)
			}
			plan, err := g.Compile()
			if err != nil {
				b.Fatal(err)
			}
			ws, err := sched.NewWorkSteal(plan, sched.Options{Threads: 4, WS: opts})
			if err != nil {
				b.Fatal(err)
			}
			defer ws.Close()
			session.Prepare()
			ws.Execute()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				session.Prepare()
				ws.Execute()
			}
		})
	}
}

// BenchmarkPoolSession measures one APC cycle of a session on a shared
// worker pool — the same unit as BenchmarkTable1's strategy cells, so
// the shared-core claim protocol's overhead over the private-pool
// strategies is directly comparable.
func BenchmarkPoolSession(b *testing.B) {
	e := newBenchEngine(b, sched.NamePool, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Cycle(nil)
	}
}

// BenchmarkMultiSession measures aggregate throughput of 4 concurrent
// sessions over one shared pool: one op is one cycle of EVERY session,
// driven concurrently — the multi-user capacity unit.
func BenchmarkMultiSession(b *testing.B) {
	const sessions = 4
	pool, err := sched.NewPool(3, sessions)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(pool.Close)
	var engines []*engine.Engine
	for s := 0; s < sessions; s++ {
		e, err := engine.New(engine.Config{Graph: benchGraphConfig(), Pool: pool})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(e.Close)
		engines = append(engines, e)
		for i := 0; i < 20; i++ {
			e.Cycle(nil)
		}
	}
	var wg sync.WaitGroup
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range engines {
			wg.Add(1)
			go func(e *engine.Engine) {
				defer wg.Done()
				e.Cycle(nil)
			}(e)
		}
		wg.Wait()
	}
}

// BenchmarkPlanCompile measures the plan-compilation pipeline on the
// standard DJ Star graph: the CSR + rank compile itself, and the
// cost-guided fusion pass on top of it. Both run at engine start-up and
// when an edit is staged, never on the audio path, but regressions here
// delay session bring-up and plan swaps.
func BenchmarkPlanCompile(b *testing.B) {
	_, g, err := graph.BuildDJStar(benchGraphConfig())
	if err != nil {
		b.Fatal(err)
	}
	plan, err := g.Compile()
	if err != nil {
		b.Fatal(err)
	}
	costs := rescon.PaperCostsUS(plan)
	b.Run("compile", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := g.Compile(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fuse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := graph.Fuse(plan, costs, graph.FuseOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSubstrates measures the main DSP substrates per packet, the
// raw kernels the graph nodes are built from.
func BenchmarkSubstrates(b *testing.B) {
	b.Run("graph-compile", func(b *testing.B) {
		cfg := benchGraphConfig()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, g, err := graph.BuildDJStar(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := g.Compile(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// pausedDecksEngine returns a spin-free sequential engine (pure DSP, like
// the benchmark's dsp-seq workload) whose first paused decks were paused
// after 200 cycles of play, 3000 cycles ago: long enough for every biquad
// on the silent decks to have decayed as far as it ever will. graphUS reports the graph stage
// of the cycle that just ran.
func pausedDecksEngine(tb testing.TB, paused int) (e *engine.Engine, graphUS func() float64) {
	tb.Helper()
	var last engine.CycleInfo
	cfg := engine.Config{Graph: graph.DefaultConfig(), Strategy: sched.NameSequential, Threads: 1}
	cfg.Graph.TrackBars = 4
	cfg.Hooks.OnCycle = func(ci engine.CycleInfo) { last = ci }
	e, err := engine.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(e.Close)
	for i := 0; i < 3200; i++ {
		if i == 200 { // with every filter and delay line full of sound
			for d := 0; d < paused; d++ {
				e.Session().Decks[d].Pause()
			}
		}
		e.Cycle(nil)
	}
	return e, func() float64 { return last.GraphMS * 1e3 }
}

// BenchmarkPausedDecks measures the graph stage with 0, 1 and 3 of the
// four decks paused. A paused deck feeds exact zeros into its SP filters,
// effect chain and strip; with kernel cost independent of signal level
// (DESIGN.md §21) the three figures are the same, where they used to be
// 40, 250 and 650 us. ns/op is the whole cycle; graph-us/op the stage.
func BenchmarkPausedDecks(b *testing.B) {
	for _, paused := range []int{0, 1, 3} {
		b.Run(fmt.Sprintf("paused=%d", paused), func(b *testing.B) {
			e, graphUS := pausedDecksEngine(b, paused)
			sum := 0.0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Cycle(nil)
				sum += graphUS()
			}
			b.ReportMetric(sum/float64(b.N), "graph-us/op")
		})
	}
}
