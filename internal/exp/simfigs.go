package exp

import (
	"djstar/internal/engine"
	"djstar/internal/rescon"
	"djstar/internal/sched"
	"djstar/internal/stats"
)

// Fig4Result holds the schedule simulation outcomes of §IV.
type Fig4Result struct {
	// CriticalPathUS is the earliest-start (infinite processor) makespan
	// — the paper reports 295 µs.
	CriticalPathUS float64
	// PeakConcurrency is the maximum parallelism — the paper reports 33.
	PeakConcurrency int
	// FourCoreUS is the 4-processor resource-constrained makespan — the
	// paper reports 324 µs.
	FourCoreUS float64
	// SequentialUS is the total work (1-processor makespan).
	SequentialUS float64
	// Profile is the concurrency-over-time curve (Fig. 4's shape).
	Profile []int
}

// Fig4 reproduces the paper's §IV simulation: measure average node
// durations over many cycles, then compute the earliest-start schedule
// (critical path, peak concurrency) and the 4-core optimal schedule.
func Fig4(opts Options) (*Fig4Result, error) {
	opts.normalize()
	durs, plan, err := engine.MeasureNodeDurations(opts.graphConfig(), min(opts.Cycles, 2000))
	if err != nil {
		return nil, err
	}
	m, err := rescon.FromPlan(plan, durs)
	if err != nil {
		return nil, err
	}
	es := m.EarliestStart()
	four, err := m.ListSchedule(4)
	if err != nil {
		return nil, err
	}
	res := &Fig4Result{
		CriticalPathUS:  es.MakespanUS,
		PeakConcurrency: es.PeakConcurrency,
		FourCoreUS:      four.MakespanUS,
		SequentialUS:    m.TotalWork(),
		Profile:         rescon.ConcurrencyProfile(es, 100),
	}

	fprintf(opts.Out, "Fig. 4 / §IV: simulated optimal scheduling (measured node durations)\n")
	fprintf(opts.Out, "  earliest start (infinite procs): %8.1f µs makespan, peak concurrency %d\n",
		res.CriticalPathUS, res.PeakConcurrency)
	fprintf(opts.Out, "  resource constrained (4 procs):  %8.1f µs makespan (+%.0f%% vs critical path)\n",
		res.FourCoreUS, 100*(res.FourCoreUS/res.CriticalPathUS-1))
	fprintf(opts.Out, "  sequential total work:           %8.1f µs\n\n", res.SequentialUS)
	fprintf(opts.Out, "%s\n", stats.RenderProfile(res.Profile,
		"Fig. 4: concurrency profile (earliest-start schedule)", 12))
	return res, nil
}

// Fig12Result compares the BUSY strategy's simulation with measurement.
type Fig12Result struct {
	// OptimalUS is the 4-core list schedule makespan (paper: 324 µs).
	OptimalUS float64
	// SimBusyUS is the simulated BUSY makespan (paper: 327 µs).
	SimBusyUS float64
	// SimSleepUS is the simulated SLEEP makespan (our extension).
	SimSleepUS float64
	// MeasuredBusyUS is the measured mean graph time (paper: 452 µs).
	MeasuredBusyUS float64
	// EfficiencyVsOptimal is SimBusy relative to the lower bound (the
	// paper's 99 % / "within 8 % of optimal" claim).
	Efficiency float64
}

// Fig12 reproduces Fig. 12 and the §VI comparison: simulate the BUSY
// schedule in the RESCON model and compare it with both the 4-core
// optimum and the real measurement (which additionally pays thread
// management, node assignment and dependency checking).
func Fig12(opts Options) (*Fig12Result, error) {
	opts.normalize()
	durs, plan, err := engine.MeasureNodeDurations(opts.graphConfig(), min(opts.Cycles, 2000))
	if err != nil {
		return nil, err
	}
	m, err := rescon.FromPlan(plan, durs)
	if err != nil {
		return nil, err
	}
	four, err := m.ListSchedule(4)
	if err != nil {
		return nil, err
	}
	ov := rescon.StrategyOverheads{CheckUS: 0.5 * opts.Scale, WakeUS: 10 * opts.Scale}
	simBusy, err := m.SimulateBusy(4, ov)
	if err != nil {
		return nil, err
	}
	simSleep, err := m.SimulateSleep(4, ov)
	if err != nil {
		return nil, err
	}
	meas, err := opts.runEngine(sched.NameBusyWait, 4, false)
	if err != nil {
		return nil, err
	}

	res := &Fig12Result{
		OptimalUS:      four.MakespanUS,
		SimBusyUS:      simBusy.MakespanUS,
		SimSleepUS:     simSleep.MakespanUS,
		MeasuredBusyUS: meas.GraphMeanMS() * 1e3,
		Efficiency:     m.Efficiency(simBusy),
	}
	fprintf(opts.Out, "Fig. 12 / §VI: BUSY schedule — simulation vs measurement (4 threads)\n")
	fprintf(opts.Out, "  optimal 4-core schedule:   %8.1f µs\n", res.OptimalUS)
	fprintf(opts.Out, "  simulated BUSY schedule:   %8.1f µs (+%.1f%% vs optimal, efficiency %.0f%%)\n",
		res.SimBusyUS, 100*(res.SimBusyUS/res.OptimalUS-1), 100*res.Efficiency)
	fprintf(opts.Out, "  simulated SLEEP schedule:  %8.1f µs\n", res.SimSleepUS)
	fprintf(opts.Out, "  measured BUSY mean:        %8.1f µs (simulation excludes thread mgmt / dependency checks)\n\n",
		res.MeasuredBusyUS)
	return res, nil
}
