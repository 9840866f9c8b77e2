// Package exp implements the evaluation harness: one driver per table and
// figure of the paper (§IV and §VI). The drivers are shared between the
// djbench command and the repository's bench_test.go, and each one both
// returns a structured result (asserted by tests) and writes a human
// report (the regenerated table/figure) to the configured writer.
//
// Experiment index (see DESIGN.md §5):
//
//	Table1      — average task-graph response times, 3 strategies × 1–4 threads
//	Fig4        — simulated optimal schedules (earliest start, 1–8-core list
//	              schedules; measured and design node costs)
//	Fig8        — speedup over sequential
//	Fig9/Fig10  — execution-time histograms and cumulative histograms
//	Fig11       — typical schedule realizations (Gantt)
//	Fig12       — BUSY strategy simulated vs measured, simulated BUSY Gantt
//	Deadlines   — misses of the 2.9 ms APC deadline over 10k cycles
//	Profile     — APC component breakdown (TP/GP/Graph/VC)
//	ThreadSweep — thread counts beyond four
//	Ablation    — work-stealing design choices
package exp

import (
	"fmt"
	"io"
	"sync"

	"djstar/internal/engine"
	"djstar/internal/graph"
	"djstar/internal/sched"
	"djstar/internal/stats"
	"djstar/internal/synth"
)

// Options configure an experiment run.
type Options struct {
	// Out receives the rendered report. Required.
	Out io.Writer
	// Cycles is the APC iteration count per measurement (paper: 10,000).
	Cycles int
	// Scale is the node-cost scale (1.0 = paper scale).
	Scale float64
	// MaxThreads bounds the thread sweep for Table 1 (paper: 4).
	MaxThreads int
	// TrackBars sizes the synthetic tracks.
	TrackBars int
}

// Defaults returns the paper's evaluation settings: 10k cycles at full
// scale, threads 1..4.
func Defaults(out io.Writer) Options {
	return Options{Out: out, Cycles: 10000, Scale: 1.0, MaxThreads: 4, TrackBars: 16}
}

// Quick returns reduced settings for smoke tests and CI: fewer cycles at
// a small scale.
func Quick(out io.Writer) Options {
	return Options{Out: out, Cycles: 300, Scale: 0.05, MaxThreads: 4, TrackBars: 4}
}

func (o *Options) normalize() {
	if o.Cycles <= 0 {
		o.Cycles = 10000
	}
	if o.Scale < 0 {
		o.Scale = 0
	}
	if o.MaxThreads <= 0 {
		o.MaxThreads = 4
	}
	if o.TrackBars <= 0 {
		o.TrackBars = 16
	}
	if o.Out == nil {
		o.Out = io.Discard
	}
}

// calibration is measured once per process.
var (
	calOnce sync.Once
	calVal  graph.Calibration
)

// Calib returns the process-wide spin calibration.
func Calib() graph.Calibration {
	calOnce.Do(func() { calVal = graph.Calibrate() })
	return calVal
}

// tracks maps a bar count to its standard deck tracks ([4]*synth.Track).
var tracks sync.Map

// deckTracks returns the standard deck tracks of the given length, which
// every cell shares: rendered once per process, as Calib measures once.
func deckTracks(bars int) []*synth.Track {
	t, ok := tracks.Load(bars)
	if !ok {
		t, _ = tracks.LoadOrStore(bars, synth.StandardDeckTracks(bars))
	}
	set := t.([4]*synth.Track)
	return set[:]
}

// graphConfig builds the standard graph config for the options, on the
// process-wide deck tracks.
func (o *Options) graphConfig() graph.Config {
	cfg := graph.DefaultConfig()
	cfg.Scale = o.Scale
	cfg.TrackBars = o.TrackBars
	cfg.Tracks = deckTracks(o.TrackBars)
	if o.Scale > 0 {
		cfg.Calibration = Calib()
	}
	return cfg
}

// runEngine measures one (strategy, threads) cell.
func (o *Options) runEngine(strategy string, threads int, collect bool) (*engine.Metrics, error) {
	cfg := engine.Config{
		Graph:     o.graphConfig(),
		Strategy:  strategy,
		Threads:   threads,
		DisableGC: o.Scale >= 0.5, // full-scale runs measure without GC noise
	}
	e, err := engine.New(cfg)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	return e.MeasuredRun(o.Cycles, collect), nil
}

// timeGraph measures the graph alone — no TP/GP/VC — under the scheduler
// build makes for a fresh DJ Star plan: Cycles Executes, each after the
// session's Prepare, timed in ms. The scheduler is closed on return.
func (o *Options) timeGraph(build func(*graph.Plan) (sched.Scheduler, error)) (*stats.Summary, error) {
	session, g, err := graph.BuildDJStar(o.graphConfig())
	if err != nil {
		return nil, err
	}
	plan, err := g.Compile()
	if err != nil {
		return nil, err
	}
	s, err := build(plan)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	sum := stats.NewSummary()
	for c := 0; c < o.Cycles; c++ {
		session.Prepare()
		start := graph.NowNanos()
		s.Execute()
		sum.Add(float64(graph.NowNanos()-start) / 1e6)
	}
	return sum, nil
}

// ParallelStrategies are the three strategies the paper evaluates.
var ParallelStrategies = []string{sched.NameBusyWait, sched.NameSleep, sched.NameWorkSteal}

// fprintf writes to the report, ignoring errors (reports go to terminals
// or buffers; a failed diagnostic write must not fail an experiment).
func fprintf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...)
}
