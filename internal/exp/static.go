package exp

import (
	"fmt"

	"djstar/internal/engine"
	"djstar/internal/graph"
	"djstar/internal/rescon"
	"djstar/internal/sched"
	"djstar/internal/stats"
)

// StaticResult compares offline (MCFlow-style) scheduling against the
// paper's online strategies.
type StaticResult struct {
	// StaticMS is the mean graph time of the offline executor whose
	// assignment comes from a list schedule over *average* durations.
	StaticMS float64
	// BusyMS and WSMS are the online references.
	BusyMS float64
	WSMS   float64
	// StaticWorstMS vs BusyWorstMS expose the tail behaviour, where the
	// inability of the static assignment to adapt to data-dependent node
	// costs shows up first.
	StaticWorstMS float64
	BusyWorstMS   float64
}

// StaticVsOnline implements the paper's related-work comparison (§VII):
// MCFlow takes scheduling decisions offline, while DJ Star schedules
// online "because the work is very imbalanced and a static procedure
// cannot take this into account". We compute an offline 4-core list
// schedule from measured average node durations, replay it with the
// Static executor, and compare against BUSY and WS on the same workload.
func StaticVsOnline(opts Options) (*StaticResult, error) {
	opts.normalize()

	// Offline phase: average durations -> list schedule -> worker lists.
	durs, _, err := engine.MeasureNodeDurations(opts.graphConfig(), min(opts.Cycles, 500))
	if err != nil {
		return nil, err
	}

	staticSum, err := opts.timeGraph(func(p *graph.Plan) (sched.Scheduler, error) {
		model, err := rescon.FromPlan(p, durs)
		if err != nil {
			return nil, err
		}
		schedule, err := model.ListSchedule(opts.MaxThreads)
		if err != nil {
			return nil, err
		}
		lists, err := sched.FromScheduleOrder(p, schedule.Proc, schedule.Start, opts.MaxThreads)
		if err != nil {
			return nil, err
		}
		return sched.NewStatic(p, lists, sched.Options{})
	})
	if err != nil {
		return nil, err
	}
	busySum, err := opts.timeGraph(func(p *graph.Plan) (sched.Scheduler, error) {
		return sched.New(sched.NameBusyWait, p, sched.Options{Threads: opts.MaxThreads})
	})
	if err != nil {
		return nil, err
	}
	wsSum, err := opts.timeGraph(func(p *graph.Plan) (sched.Scheduler, error) {
		return sched.New(sched.NameWorkSteal, p, sched.Options{Threads: opts.MaxThreads})
	})
	if err != nil {
		return nil, err
	}

	res := &StaticResult{
		StaticMS:      staticSum.Mean(),
		BusyMS:        busySum.Mean(),
		WSMS:          wsSum.Mean(),
		StaticWorstMS: staticSum.Max(),
		BusyWorstMS:   busySum.Max(),
	}
	fprintf(opts.Out, "§VII extension: offline (MCFlow-style) vs online scheduling (%d cycles, %d threads)\n",
		opts.Cycles, opts.MaxThreads)
	fprintf(opts.Out, "%s\n", stats.RenderTable(
		[]string{"executor", "mean ms", "worst ms"},
		[][]string{
			{"static offline list schedule", fmt.Sprintf("%.4f", res.StaticMS), fmt.Sprintf("%.4f", res.StaticWorstMS)},
			{"busy-wait (online)", fmt.Sprintf("%.4f", res.BusyMS), fmt.Sprintf("%.4f", res.BusyWorstMS)},
			{"work-stealing (online)", fmt.Sprintf("%.4f", res.WSMS), fmt.Sprintf("%.4f", wsSum.Max())},
		}))
	return res, nil
}
