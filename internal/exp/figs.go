package exp

import (
	"fmt"
	"sort"

	"djstar/internal/engine"
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
// into the engine collector's trace ring (Obs.TraceEvery=1, one ring
// slot per cycle), pulls the ring after the run and reports the
// realization whose makespan is the strategy's median.
func Fig11(opts Options) (*Fig11Result, error) {
	opts.normalize()
	res := &Fig11Result{
		Events:     map[string][]sched.TraceEvent{},
		MakespanUS: map[string]float64{},
	}
	traceCycles := min(opts.Cycles, 400)
	for _, name := range ParallelStrategies {
		e, err := engine.New(engine.Config{
			Graph:    opts.graphConfig(),
			Strategy: name,
			Threads:  opts.MaxThreads,
			Obs:      engine.ObsOptions{TraceEvery: 1, TraceRing: traceCycles},
		})
		if err != nil {
			return nil, err
		}
		for c := 0; c < traceCycles; c++ {
			e.Cycle(nil)
		}
		e.Close()

		traces := e.Collector().Traces()
		sort.Slice(traces, func(a, b int) bool { return traces[a].MakespanNS() < traces[b].MakespanNS() })
		median := &traces[len(traces)/2]
		evs := make([]sched.TraceEvent, len(median.Worker))
		for id := range median.Worker {
			evs[id] = sched.TraceEvent{
				Node:   int32(id),
				Worker: median.Worker[id],
				Start:  median.StartNS[id],
				End:    median.EndNS[id],
			}
		}
		res.Events[name] = evs
		res.MakespanUS[name] = float64(median.MakespanNS()) / 1e3

		fprintf(opts.Out, "%s\n", stats.RenderGantt(median.GanttTasks(e.Plan().Names),
			fmt.Sprintf("Fig. 11 (%s): typical schedule realization, µs", name), 100))
	}
	return res, nil
}
