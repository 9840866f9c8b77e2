package exp

import (
	"fmt"
	"sort"

	"djstar/internal/engine"
	"djstar/internal/obs"
	"djstar/internal/sched"
	"djstar/internal/stats"
)

// HistResult holds the per-strategy execution-time distributions behind
// Fig. 9 (histograms) and Fig. 10 (cumulative histograms).
type HistResult struct {
	// Hist maps strategy name to its graph-time histogram (ms).
	Hist map[string]*stats.Histogram
	// Samples keeps the raw per-cycle graph times (ms) per strategy.
	Samples map[string][]float64
}

// collectHistograms runs the three strategies at MaxThreads threads with
// sample collection and bins the results into a common range.
func collectHistograms(opts Options) (*HistResult, error) {
	res := &HistResult{
		Hist:    map[string]*stats.Histogram{},
		Samples: map[string][]float64{},
	}
	var all []float64
	for _, name := range ParallelStrategies {
		m, err := opts.runEngine(name, opts.MaxThreads, true)
		if err != nil {
			return nil, err
		}
		res.Samples[name] = m.GraphSamplesMS
		all = append(all, m.GraphSamplesMS...)
	}
	// Common axis: [p0.5, p99.5] of the pooled samples, padded slightly,
	// mirroring the paper's 0.2–0.8 ms axis.
	ps := stats.Percentiles(all, 0.005, 0.995)
	lo, hi := ps[0]*0.9, ps[1]*1.1
	if !(hi > lo) {
		hi = lo + 1e-6
	}
	for _, name := range ParallelStrategies {
		h := stats.MustHistogram(lo, hi, 30)
		for _, x := range res.Samples[name] {
			h.Add(x)
		}
		res.Hist[name] = h
	}
	return res, nil
}

// Fig9 reproduces Fig. 9: histograms of the task-graph execution times of
// the three scheduling strategies over Cycles iterations.
func Fig9(opts Options) (*HistResult, error) {
	opts.normalize()
	res, err := collectHistograms(opts)
	if err != nil {
		return nil, err
	}
	fprintf(opts.Out, "Fig. 9: execution time distributions (ms), %d cycles, %d threads\n\n",
		opts.Cycles, opts.MaxThreads)
	for _, name := range ParallelStrategies {
		fprintf(opts.Out, "%s\n", stats.RenderHistogram(res.Hist[name], name, 50))
	}
	return res, nil
}

// Fig10 reproduces Fig. 10: cumulative histograms of the same data.
func Fig10(opts Options) (*HistResult, error) {
	opts.normalize()
	res, err := collectHistograms(opts)
	if err != nil {
		return nil, err
	}
	fprintf(opts.Out, "Fig. 10: cumulative execution time distributions (ms)\n\n")
	for _, name := range ParallelStrategies {
		fprintf(opts.Out, "%s\n", stats.RenderCumulative(res.Hist[name], name, 50))
	}
	return res, nil
}

// Fig11Result holds one traced schedule realization per strategy.
type Fig11Result struct {
	// Events maps strategy to the traced node executions of a typical
	// (near-median) cycle.
	Events map[string][]sched.TraceEvent
	// MakespanUS maps strategy to that cycle's makespan in µs.
	MakespanUS map[string]float64
}

// Fig11 reproduces Fig. 11: typical schedule realizations of the three
// strategies with four threads. For each strategy it samples every cycle
// through the engine's observability collector (Obs.TraceEvery=1 plus the
// OnTrace hook) and reports the one whose makespan is closest to the
// strategy's median.
func Fig11(opts Options) (*Fig11Result, error) {
	opts.normalize()
	res := &Fig11Result{
		Events:     map[string][]sched.TraceEvent{},
		MakespanUS: map[string]float64{},
	}
	traceCycles := min(opts.Cycles, 400)
	for _, name := range ParallelStrategies {
		type rec struct {
			makespan int64
			events   []sched.TraceEvent
		}
		var recs []rec
		cfg := engine.Config{
			Graph:    opts.graphConfig(),
			Strategy: name,
			Threads:  opts.MaxThreads,
			Obs:      engine.ObsOptions{TraceEvery: 1, TraceRing: 1},
			Hooks: engine.Hooks{OnTrace: func(t *obs.CycleTrace) {
				// The trace buffers are reused across cycles: copy into a
				// flat event list (one entry per node, like the Tracer).
				evs := make([]sched.TraceEvent, len(t.Worker))
				for id := range t.Worker {
					evs[id] = sched.TraceEvent{
						Node:   int32(id),
						Worker: t.Worker[id],
						Start:  t.StartNS[id],
						End:    t.EndNS[id],
					}
				}
				recs = append(recs, rec{t.MakespanNS(), evs})
			}},
		}
		e, err := engine.New(cfg)
		if err != nil {
			return nil, err
		}
		for c := 0; c < traceCycles; c++ {
			e.Cycle(nil)
		}
		e.Close()

		sort.Slice(recs, func(a, b int) bool { return recs[a].makespan < recs[b].makespan })
		median := recs[len(recs)/2]
		res.Events[name] = median.events
		res.MakespanUS[name] = float64(median.makespan) / 1e3

		// Render as a Gantt chart.
		plan := e.Plan()
		var tasks []stats.GanttTask
		for _, ev := range median.events {
			if ev.Worker < 0 {
				continue
			}
			tasks = append(tasks, stats.GanttTask{
				Name:   plan.Names[ev.Node],
				Worker: int(ev.Worker),
				Start:  float64(ev.Start) / 1e3,
				End:    float64(ev.End) / 1e3,
			})
		}
		fprintf(opts.Out, "%s\n", stats.RenderGantt(tasks,
			fmt.Sprintf("Fig. 11 (%s): typical schedule realization, µs", name), 100))
	}
	return res, nil
}
