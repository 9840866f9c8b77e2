package exp

import (
	"fmt"

	"djstar/internal/engine"
	"djstar/internal/graph"
	"djstar/internal/rescon"
	"djstar/internal/sched"
	"djstar/internal/stats"
)

// fig4Procs are the processor counts of Fig. 4's list-schedule curve
// (E3's simulated speedup).
var fig4Procs = []int{1, 2, 4, 8}

// Fig4Costs is the §IV analysis of the graph under one node-cost table.
type Fig4Costs struct {
	// CriticalPathUS is the earliest-start (infinite processor) makespan
	// — the paper reports 295 µs.
	CriticalPathUS float64
	// PeakConcurrency is the maximum parallelism — the paper reports 33.
	PeakConcurrency int
	// SequentialUS is the total work.
	SequentialUS float64
	// ListUS maps each of fig4Procs to its resource-constrained list
	// schedule's makespan; the paper reports 324 µs on 4 processors, and
	// on one the makespan is the total work.
	ListUS map[int]float64
	// Profile is the earliest-start schedule's concurrency over time
	// (Fig. 4's shape).
	Profile []int
}

// Fig4Result holds the schedule simulation outcomes of §IV.
type Fig4Result struct {
	// Measured analyzes the measured node durations; Design the DESIGN.md
	// cost targets at paper scale (rescon.PaperCostsUS).
	Measured, Design Fig4Costs
}

// fig4Analyze runs the §IV analysis under one cost table.
func fig4Analyze(plan *graph.Plan, costsUS []float64) (Fig4Costs, error) {
	m, err := rescon.FromPlan(plan, costsUS)
	if err != nil {
		return Fig4Costs{}, err
	}
	es := m.EarliestStart()
	c := Fig4Costs{
		CriticalPathUS:  es.MakespanUS,
		PeakConcurrency: es.PeakConcurrency,
		SequentialUS:    m.TotalWork(),
		ListUS:          map[int]float64{},
		Profile:         rescon.ConcurrencyProfile(es, 100),
	}
	for _, p := range fig4Procs {
		r, err := m.ListSchedule(p)
		if err != nil {
			return Fig4Costs{}, err
		}
		c.ListUS[p] = r.MakespanUS
	}
	return c, nil
}

// Fig4 reproduces the paper's §IV simulation: measure average node
// durations over many cycles, then compute the earliest-start schedule
// (critical path, peak concurrency) and list schedules on 1, 2, 4 and 8
// processors — beside the same analysis of the design cost targets.
func Fig4(opts Options) (*Fig4Result, error) {
	opts.normalize()
	durs, plan, err := engine.MeasureNodeDurations(opts.graphConfig(), min(opts.Cycles, 2000))
	if err != nil {
		return nil, err
	}
	res := &Fig4Result{}
	if res.Measured, err = fig4Analyze(plan, durs); err != nil {
		return nil, err
	}
	if res.Design, err = fig4Analyze(plan, rescon.PaperCostsUS(plan)); err != nil {
		return nil, err
	}

	d, m := res.Design, res.Measured
	rows := [][]string{
		{"earliest start (∞ procs) µs", "295", fmt.Sprintf("%.1f", d.CriticalPathUS), fmt.Sprintf("%.1f", m.CriticalPathUS)},
		{"peak concurrency", "33", fmt.Sprintf("%d", d.PeakConcurrency), fmt.Sprintf("%d", m.PeakConcurrency)},
	}
	for _, p := range fig4Procs {
		paper := map[int]string{1: "~1080 (Table I)", 4: "324"}[p]
		rows = append(rows, []string{fmt.Sprintf("list schedule %d procs µs", p), paper,
			fmt.Sprintf("%.1f", d.ListUS[p]), fmt.Sprintf("%.1f", m.ListUS[p])})
	}
	fprintf(opts.Out, "Fig. 4 / §IV: simulated optimal scheduling\n")
	fprintf(opts.Out, "%s\n", stats.RenderTable([]string{"quantity", "paper", "design costs",
		fmt.Sprintf("measured (scale %.2f)", opts.Scale)}, rows))
	fprintf(opts.Out, "%s\n", stats.RenderProfile(m.Profile,
		"Fig. 4: concurrency profile (earliest-start schedule, measured)", 12))
	return res, nil
}

// Fig12Result compares the BUSY strategy's simulation with measurement.
type Fig12Result struct {
	// OptimalUS is the shorter 4-processor schedule of the list schedule and
	// the overhead-free BUSY deal, so SimBusyUS ≥ it (paper: 324 µs).
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
	lists := plan.RoundRobinLists(4)
	deal, err := m.Simulate(lists, rescon.StrategyOverheads{})
	if err != nil {
		return nil, err
	}
	simBusy, err := m.Simulate(lists, rescon.StrategyOverheads{CheckUS: 0.5 * opts.Scale})
	if err != nil {
		return nil, err
	}
	simSleep, err := m.Simulate(lists, rescon.StrategyOverheads{CheckUS: 0.5 * opts.Scale, WakeUS: 10 * opts.Scale})
	if err != nil {
		return nil, err
	}
	meas, err := opts.runEngine(sched.NameBusyWait, 4, false)
	if err != nil {
		return nil, err
	}

	res := &Fig12Result{
		OptimalUS:      min(four.MakespanUS, deal.MakespanUS),
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
	tasks := make([]stats.GanttTask, m.Len())
	for i := range tasks {
		tasks[i] = stats.GanttTask{Name: m.Name(i), Worker: int(simBusy.Proc[i]),
			Start: simBusy.Start[i], End: simBusy.Finish[i]}
	}
	fprintf(opts.Out, "%s\n", stats.RenderGantt(tasks, "Fig. 12: simulated BUSY schedule (µs)", 100))
	return res, nil
}
