// Command djsim is the RESCON-style schedule simulator CLI (paper §IV).
// It measures the standard DJ Star graph's node durations, then prints
// the earliest-start schedule, resource-constrained schedules for a range
// of processor counts, and the BUSY/SLEEP strategy simulations.
//
// Usage:
//
//	djsim                       # paper-scale node durations
//	djsim -procs 8 -scale 0.5   # other configurations
//	djsim -paper-costs          # use the design targets instead of measuring
package main

import (
	"flag"
	"fmt"
	"os"

	"djstar/internal/engine"
	"djstar/internal/graph"
	"djstar/internal/rescon"
	"djstar/internal/stats"
)

func main() {
	var (
		procs      = flag.Int("procs", 4, "processor count for the resource-constrained schedule")
		scale      = flag.Float64("scale", 1.0, "node cost scale when measuring")
		cycles     = flag.Int("cycles", 500, "cycles used to measure node durations")
		paperCosts = flag.Bool("paper-costs", false, "use the DESIGN.md cost targets instead of measuring")
		checkUS    = flag.Float64("check-us", 0.5, "per-node dependency check overhead in the strategy simulations (µs)")
		wakeUS     = flag.Float64("wake-us", 10, "thread wake-up latency in the SLEEP simulation (µs)")
		dot        = flag.Bool("dot", false, "print the task graph in Graphviz DOT format and exit")
	)
	flag.Parse()

	cfg := graph.DefaultConfig()
	cfg.Scale = *scale
	if *scale > 0 {
		cfg.Calibration = graph.Calibrate()
	}

	if *dot {
		_, g, err := graph.BuildDJStar(cfg)
		if err != nil {
			fatal(err)
		}
		if err := g.WriteDOT(os.Stdout, "djstar"); err != nil {
			fatal(err)
		}
		return
	}

	var durs []float64
	var plan *graph.Plan
	var err error
	if *paperCosts {
		_, g, berr := graph.BuildDJStar(cfg)
		if berr != nil {
			fatal(berr)
		}
		plan, err = g.Compile()
		if err != nil {
			fatal(err)
		}
		durs = rescon.PaperCostsUS(plan)
		fmt.Printf("djsim: using DESIGN.md cost targets\n\n")
	} else {
		fmt.Printf("djsim: measuring node durations over %d cycles at scale %.2f...\n\n", *cycles, *scale)
		durs, plan, err = engine.MeasureNodeDurations(cfg, *cycles)
		if err != nil {
			fatal(err)
		}
	}

	m, err := rescon.FromPlan(plan, durs)
	if err != nil {
		fatal(err)
	}

	es := m.EarliestStart()
	fmt.Printf("earliest start (infinite processors):\n")
	fmt.Printf("  makespan          %8.1f µs   (paper: 295 µs)\n", es.MakespanUS)
	fmt.Printf("  peak concurrency  %8d      (paper: 33)\n", es.PeakConcurrency)
	fmt.Printf("  total work        %8.1f µs\n\n", m.TotalWork())
	fmt.Print(stats.RenderProfile(rescon.ConcurrencyProfile(es, 100),
		"concurrency profile", 12))
	fmt.Println()

	for _, p := range []int{1, 2, *procs, 8} {
		r, err := m.ListSchedule(p)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("list schedule %d procs: %8.1f µs  (efficiency %.0f%%)\n",
			p, r.MakespanUS, 100*m.Efficiency(r))
	}
	fmt.Println()

	ov := rescon.StrategyOverheads{CheckUS: *checkUS, WakeUS: *wakeUS}
	busy, err := m.SimulateBusy(*procs, ov)
	if err != nil {
		fatal(err)
	}
	sleep, err := m.SimulateSleep(*procs, ov)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("strategy simulations on %d threads (check %.1f µs, wake %.1f µs):\n",
		*procs, *checkUS, *wakeUS)
	fmt.Printf("  BUSY   %8.1f µs   wait %8.1f µs   efficiency %.0f%%  (paper: 327 µs, 99%%)\n",
		busy.MakespanUS, busy.WaitUS, 100*m.Efficiency(busy))
	fmt.Printf("  SLEEP  %8.1f µs   wait %8.1f µs   efficiency %.0f%%\n\n",
		sleep.MakespanUS, sleep.WaitUS, 100*m.Efficiency(sleep))

	// Gantt of the simulated BUSY schedule (Fig. 12).
	var tasks []stats.GanttTask
	for i := 0; i < m.Len(); i++ {
		tasks = append(tasks, stats.GanttTask{
			Name:   m.Name(i),
			Worker: int(busy.Proc[i]),
			Start:  busy.Start[i],
			End:    busy.Finish[i],
		})
	}
	fmt.Print(stats.RenderGantt(tasks, "Fig. 12: simulated BUSY schedule (µs)", 100))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "djsim: %v\n", err)
	os.Exit(1)
}
