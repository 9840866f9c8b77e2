// Command djanalyze is the offline analysis tool for the APC task graph
// (the paper's Fig. 3): what the live engine's collector, admission gate
// and flight recorder report, reproduced outside the process that runs
// the audio. Exactly one analysis runs, chosen by flag; with none, or with
// a positional argument, it prints usage and exits 2.
//
// Usage:
//
//	djanalyze -graph                # task-graph critical-path analysis
//	djanalyze -admit                # admission bound vs measured p99 audit
//	djanalyze -incident i.json      # replay a flight-recorder bundle
//	djanalyze -dot | dot -Tsvg      # the task graph (Fig. 3) in Graphviz DOT
//
// With -graph it profiles the live task graph: per-node mean durations (a
// sequential engine's collector means), the critical path and RESCON
// bound they imply, and each parallel strategy's measured makespan against
// that bound — the offline counterpart of djstar's
// /v1/sessions/{id}/critpath.
//
// With -admit it audits the admission gate's analytical response-time
// bound (internal/admission, DESIGN.md §15): every strategy runs at each
// thread count with measured node costs feeding the same Analyze call
// the engine's gate uses, and the measured p99 graph makespan is printed
// beside the bound. The bound is falsifiable — any row whose measured
// p99 exceeds its bound is flagged and the tool exits non-zero.
//
// With -incident it loads a flight-recorder bundle (djstar -incident-dir)
// and replays its analysis offline: the bundle's graph structure and node
// means are fed through the same critical-path computation the live
// engine used, and the result is checked against the bundle's own
// recorded path — a self-consistency proof that the incident is
// reproducible without the process that captured it.
//
// With -dot it prints the task graph in Graphviz DOT format.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"djstar/internal/admission"
	"djstar/internal/engine"
	"djstar/internal/graph"
	"djstar/internal/obs"
	"djstar/internal/sched"
	"djstar/internal/stats"
)

func main() { os.Exit(run(os.Args[1:])) }

// run parses args, runs the analysis they select and returns the exit
// code: 0 on success, 1 when the analysis fails, 2 on a usage error.
func run(args []string) int {
	fs := flag.NewFlagSet("djanalyze", flag.ExitOnError)
	var (
		graphMode = fs.Bool("graph", false, "analyze the task graph (critical path, bounds, strategy efficiency)")
		cycles    = fs.Int("cycles", 2000, "measurement cycles for -graph and -admit")
		scale     = fs.Float64("scale", 0.2, "node cost scale for -graph and -admit")
		threads   = fs.Int("threads", 4, "threads for -graph strategy runs; the largest thread count for -admit")
		admit     = fs.Bool("admit", false, "audit the admission bound against measured p99 per strategy/threads")
		incident  = fs.String("incident", "", "replay this flight-recorder incident bundle")
		dot       = fs.Bool("dot", false, "print the task graph in Graphviz DOT format (Fig. 3)")
	)
	fs.Parse(args)
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "djanalyze: unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		return 2
	}

	var err error
	switch {
	case *dot:
		var g *graph.Graph
		if _, g, err = graph.BuildDJStar(graph.DefaultConfig()); err == nil {
			err = g.WriteDOT(os.Stdout, "djstar")
		}
	case *incident != "":
		err = analyzeIncident(*incident)
	case *admit:
		err = analyzeAdmit(*cycles, *scale, *threads)
	case *graphMode:
		err = analyzeGraph(*cycles, *scale, *threads)
	default:
		fmt.Fprintln(os.Stderr, "djanalyze: choose an analysis: -graph, -admit, -incident or -dot")
		fs.Usage()
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "djanalyze: %v\n", err)
		return 1
	}
	return 0
}

// checkRun rejects a measurement that would print figures it never took:
// zero cycles leave every mean and quantile at 0, and zero threads make
// every bound meaningless.
func checkRun(cycles, threads int) error {
	if cycles < 1 || threads < 1 {
		return fmt.Errorf("need -cycles ≥ 1 and -threads ≥ 1, got %d and %d", cycles, threads)
	}
	return nil
}

// analyzeGraph profiles the DJ Star task graph offline: sequentially
// measured node means feed the critical-path analyzer, then each parallel
// strategy runs with the collector and its measured makespan is compared
// to the RESCON-style bound. The critical path is a true lower bound, so
// cp ≤ measured must hold for every strategy; the tool exits non-zero if
// the measurement ever contradicts the theory.
func analyzeGraph(cycles int, scale float64, threads int) error {
	if err := checkRun(cycles, threads); err != nil {
		return err
	}
	cfg := graph.DefaultConfig()
	cfg.Scale = scale
	if scale > 0 {
		cfg.Calibration = graph.Calibrate()
	}
	means, plan, err := engine.MeasureNodeDurations(cfg, cycles)
	if err != nil {
		return err
	}
	ps := obs.CriticalPath(plan, means)
	fmt.Printf("task graph: %d nodes, total work %.1f µs (sequential means over %d cycles, scale %.2f)\n\n",
		plan.Len(), ps.TotalWorkUS, cycles, scale)
	fmt.Printf("critical path (%d nodes, %.1f µs):\n  %s\n\n", len(ps.Nodes), ps.LengthUS, ps.String())
	fmt.Printf("parallelism (work / critical path): %.2f\n", ps.Parallelism)
	fmt.Printf("bound at %d threads: %.1f µs\n\n", threads, ps.Bound(threads))

	printRankTable(plan, means)

	var rows [][]string
	for _, name := range []string{sched.NameBusyWait, sched.NameSleep, sched.NameWorkSteal} {
		e, err := engine.New(engine.Config{Graph: cfg, Strategy: name, Threads: threads})
		if err != nil {
			return err
		}
		m := e.MeasuredRun(cycles, false)
		run, ok := e.CriticalPath()
		e.Close()
		if !ok {
			return fmt.Errorf("collector disabled during %s run", name)
		}
		measuredUS := m.GraphMeanMS() * 1e3
		if run.LengthUS > measuredUS {
			return fmt.Errorf("%s: critical path %.1f µs exceeds measured makespan %.1f µs — measurement inconsistent",
				name, run.LengthUS, measuredUS)
		}
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%.1f", measuredUS),
			fmt.Sprintf("%.1f", run.LengthUS),
			fmt.Sprintf("%.1f", run.Bound(threads)),
			fmt.Sprintf("%.0f%%", 100*run.Efficiency(measuredUS, threads)),
		})
	}
	fmt.Print(stats.RenderTable(
		[]string{"strategy", "measured µs", "critpath µs", "bound µs", "efficiency"}, rows))
	return nil
}

// analyzeAdmit audits the admission gate's bound derivation: per
// strategy and thread count it computes the analytical response-time
// bound from measured node means — exactly what the engine's gate does
// on a RefreshAdmission — then runs the strategy and compares the bound
// to the measured p99 graph makespan, on GOMAXPROCS processors (the
// hardware caps real concurrency no matter how many workers spin). The
// list strategies with more workers than processors are run and
// reported but not judged: Analyze finds them unboundable, since a
// descheduled owner of the next ready node voids the premise of every
// bound (DESIGN.md §15).
//
// The bound covers the schedule, not the operating system: on a loaded
// host, preemptions and timer interrupts land in the extreme tail even
// for the sequential loop, which has no scheduling at all, and at a few
// hundred samples p99 is just the handful of worst preemptions. The
// audit therefore judges p95 — a systematic scheduling pathology (1 in
// 20 cycles slow) still lands there, isolated preemption bursts mostly
// do not — and prints p99 for visibility. It also first measures a
// sequential null model and takes its p95 − mean spread as the host's
// noise allowance; a row is VIOLATED — and the tool exits non-zero —
// when measured p95 exceeds bound + allowance, i.e. when the excess
// tail cannot be blamed on the environment.
func analyzeAdmit(cycles int, scale float64, maxThreads int) error {
	if err := checkRun(cycles, maxThreads); err != nil {
		return err
	}
	cfg := graph.DefaultConfig()
	cfg.Scale = scale
	if scale > 0 {
		cfg.Calibration = graph.Calibrate()
	}
	gomax := runtime.GOMAXPROCS(0)
	acfg := admission.Config{BaseUS: -1, Procs: gomax} // graph alone: djanalyze measures graph makespans

	threadSet := []int{2}
	if maxThreads > 2 {
		threadSet = append(threadSet, maxThreads)
	}
	type combo struct {
		strategy string
		threads  int
	}
	combos := []combo{{sched.NameSequential, 1}}
	for _, th := range threadSet {
		for _, s := range []string{sched.NameBusyWait, sched.NameSleep,
			sched.NameSleepScan, sched.NameStatic, sched.NameWorkSteal} {
			combos = append(combos, combo{s, th})
		}
	}

	noiseUS, means, plan, err := admitNoiseFloor(cfg, cycles)
	if err != nil {
		return err
	}
	fmt.Printf("admission audit: measured node costs over %d cycles, scale %.2f, GOMAXPROCS %d\n", cycles, scale, gomax)
	fmt.Printf("host noise allowance (sequential null model, p95 − mean): %.1f µs\n\n", noiseUS)
	var rows [][]string
	violations := 0
	for _, c := range combos {
		rep, err := admission.Analyze(plan, means, c.strategy, c.threads, "measured", acfg)
		if err != nil {
			return err
		}
		e, err := engine.New(engine.Config{
			Graph: cfg, Strategy: c.strategy, Threads: c.threads,
			DisableGC: true, // GC pauses would land in p99 and falsify spuriously
		})
		if err != nil {
			return err
		}
		m := e.MeasuredRun(cycles, true)
		e.Close()
		pcts := stats.Percentiles(m.GraphSamplesMS, 0.95, 0.99)
		p95US, p99US := pcts[0]*1e3, pcts[1]*1e3
		meanUS := m.GraphMeanMS() * 1e3

		verdict := "ok"
		switch {
		case rep.Unboundable != "":
			verdict = "n/a (unboundable)"
		case p95US > rep.BoundUS+noiseUS:
			verdict = "VIOLATED"
			violations++
		}
		rows = append(rows, []string{
			c.strategy,
			fmt.Sprintf("%d", c.threads),
			fmt.Sprintf("%d", min(c.threads, gomax)),
			fmt.Sprintf("%.1f", meanUS),
			fmt.Sprintf("%.1f", p95US),
			fmt.Sprintf("%.1f", p99US),
			fmt.Sprintf("%.1f", rep.GraphBoundUS),
			fmt.Sprintf("%.1f", rep.BoundUS),
			verdict,
		})
	}
	fmt.Print(stats.RenderTable(
		[]string{"strategy", "threads", "procs", "mean µs", "p95 µs", "p99 µs", "graph bound µs", "bound µs", "bound ≥ p95"}, rows))
	if violations > 0 {
		return fmt.Errorf("%d strategy rows measured past their analytical bound — the admission analysis is falsified on this host", violations)
	}
	fmt.Println("\nall judged rows hold: measured p95 ≤ analytical bound + noise allowance ✓")
	return nil
}

// admitNoiseFloor runs the sequential executor — the null model — and
// returns the host's timing-noise allowance with the node means and plan
// its collector measured on the way. With no scheduler in play, the p95
// − mean spread is pure environment (preemption, interrupts, cache
// weather) that no schedule bound can or should cover.
func admitNoiseFloor(cfg graph.Config, cycles int) (noiseUS float64, means []float64, plan *graph.Plan, err error) {
	e, err := engine.New(engine.Config{
		Graph: cfg, Strategy: sched.NameSequential, Threads: 1,
		DisableGC: true,
	})
	if err != nil {
		return 0, nil, nil, err
	}
	defer e.Close()
	m := e.MeasuredRun(cycles, true)
	noiseUS = max(stats.Percentiles(m.GraphSamplesMS, 0.95)[0]*1e3-m.GraphMeanMS()*1e3, 0)
	return noiseUS, e.Collector().NodeMeansUS(), e.Plan(), nil
}

// printRankTable shows the head of the compile-time HEFT-style rank
// order — the priority the schedulers use for round-robin lists, deque
// seeding and claim order — alongside each node's measured mean.
func printRankTable(plan *graph.Plan, meansUS []float64) {
	const top = 12
	var rows [][]string
	for i, id := range plan.RankOrder {
		if i >= top {
			break
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", i),
			plan.Names[id],
			plan.Kinds[id].String(),
			fmt.Sprintf("%d", plan.Depth[id]),
			fmt.Sprintf("%.1f", plan.Rank[id]),
			fmt.Sprintf("%.1f", meansUS[id]),
		})
	}
	fmt.Printf("rank order (top %d of %d; upward rank, unit costs):\n", min(top, plan.Len()), plan.Len())
	fmt.Print(stats.RenderTable(
		[]string{"#", "node", "kind", "depth", "rank", "mean µs"}, rows))
	fmt.Println()
}

// analyzeIncident loads an incident bundle and replays its analysis: the
// reason, identity and SLO state; the retained events, traces and time
// series; and the critical path recomputed offline from the bundled
// graph structure + node means, verified against the path the live
// engine recorded into the bundle.
func analyzeIncident(path string) error {
	inc, err := obs.LoadIncident(path)
	if err != nil {
		return err
	}
	fmt.Printf("incident: %s at cycle %d (%s)\n", inc.Reason, inc.Cycle,
		time.Unix(0, inc.UnixNanos).Format(time.RFC3339))
	fmt.Printf("engine: strategy %s, %d threads, session %q\n\n",
		inc.Strategy, inc.Threads, inc.Session)

	s := inc.SLO
	fmt.Printf("SLO: %d/%d misses in window (budget %.1f, %.0f%% remaining",
		s.WindowMisses, s.WindowFilled, s.AllowedMisses, 100*s.BudgetRemaining)
	if s.Exhausted {
		fmt.Printf(", EXHAUSTED")
	}
	fmt.Printf(")\n")
	fmt.Printf("totals: %d cycles, %d misses, %d faults, %d quarantines, %d stalls, gov level %d\n\n",
		inc.Totals.Cycles, inc.Totals.DeadlineMisses, inc.Totals.Faults,
		inc.Totals.Quarantines, inc.Totals.Stalls, inc.Totals.GovLevel)

	if len(inc.Events) > 0 {
		fmt.Printf("events (%d retained):\n", len(inc.Events))
		for _, ev := range inc.Events {
			if ev.Detail != "" {
				fmt.Printf("  cycle %8d  %-16s %s\n", ev.Cycle, ev.Kind, ev.Detail)
			} else {
				fmt.Printf("  cycle %8d  %s\n", ev.Cycle, ev.Kind)
			}
		}
		fmt.Println()
	}
	if len(inc.Traces) > 0 {
		fmt.Printf("retained schedule realizations: %d (last makespan %.1f µs over %d workers)\n\n",
			len(inc.Traces),
			float64(inc.Traces[len(inc.Traces)-1].MakespanNS())/1e3,
			inc.Traces[len(inc.Traces)-1].Workers)
	}
	if n := len(inc.Series); n > 0 {
		var cyc, miss uint64
		for _, slot := range inc.Series {
			cyc += slot.Cycles
			miss += slot.Misses
		}
		fmt.Printf("time series: %d s bundled, %d cycles, %d misses\n\n", n, cyc, miss)
	}

	ps, err := inc.Replay()
	if err != nil {
		return err
	}
	fmt.Printf("replayed critical path (%d nodes, %.1f µs):\n  %s\n",
		len(ps.Nodes), ps.LengthUS, ps.String())
	if inc.CritPath == nil {
		fmt.Println("bundle carries no live critical path to verify against")
		return nil
	}
	if ps.LengthUS != inc.CritPath.LengthUS || len(ps.Nodes) != len(inc.CritPath.Nodes) {
		return fmt.Errorf("replay mismatch: offline path %.3f µs / %d nodes, live path %.3f µs / %d nodes — bundle is inconsistent",
			ps.LengthUS, len(ps.Nodes), inc.CritPath.LengthUS, len(inc.CritPath.Nodes))
	}
	fmt.Println("replay matches the live engine's recorded critical path ✓")
	return nil
}
