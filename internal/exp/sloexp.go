package exp

import (
	"djstar/internal/engine"
	"djstar/internal/sched"
)

// SLORow is one strategy's deadline-miss budget outcome.
type SLORow struct {
	Strategy string
	Threads  int
	Cycles   uint64
	Misses   uint64
	// MissesPer10k normalizes to the paper's measurement unit (§V
	// reports ~5/10,000 for the four-thread parallel strategies).
	MissesPer10k float64
	// BudgetRemaining is the unspent fraction of the rolling window
	// budget at run end; Exhausted whether it blew the budget.
	BudgetRemaining float64
	Exhausted       bool
	// APCp50MS / APCp99MS / APCp999MS are telemetry-histogram quantiles
	// of the APC latency in milliseconds.
	APCp50MS, APCp99MS, APCp999MS float64
}

// SLOResult is the R4 table: per-strategy deadline-miss distributions
// against the paper's 5-per-10k budget.
type SLOResult struct {
	TargetPer10k float64
	Rows         []SLORow
}

// SLO runs every parallel strategy with the telemetry sink at its
// default budget (the paper's 5 misses per 10,000 cycles) and reports
// how each strategy's miss distribution spends it — the experiment
// behind EXPERIMENTS.md R4. Sequential runs too, as the overload
// reference point.
func SLO(o Options) (*SLOResult, error) {
	o.normalize()
	res := &SLOResult{TargetPer10k: 5}
	fprintf(o.Out, "Deadline-miss SLO budget per strategy (%d cycles, scale %.2f, budget 5/10k)\n\n",
		o.Cycles, o.Scale)
	fprintf(o.Out, "  %-10s %8s %7s %10s %9s %9s %9s %9s\n",
		"strategy", "cycles", "misses", "per 10k", "budget", "p50 ms", "p99 ms", "p99.9 ms")
	strategies := append([]string{sched.NameSequential}, ParallelStrategies...)
	for _, name := range strategies {
		threads := o.MaxThreads
		if name == sched.NameSequential {
			threads = 1
		}
		e, err := engine.New(engine.Config{
			Graph:     o.graphConfig(),
			Strategy:  name,
			Threads:   threads,
			DisableGC: o.Scale >= 0.5,
		})
		if err != nil {
			return nil, err
		}
		e.WarmUp(o.Cycles)
		e.RunCycles(o.Cycles)
		tel := e.Telemetry()
		slo := tel.SLO()
		row := SLORow{
			Strategy:        e.Scheduler().Name(),
			Threads:         e.Scheduler().Threads(),
			Cycles:          slo.TotalCycles,
			Misses:          slo.TotalMisses,
			BudgetRemaining: slo.BudgetRemaining,
			Exhausted:       slo.Exhausted,
			APCp50MS:        tel.APC.QuantileSeconds(0.50) * 1e3,
			APCp99MS:        tel.APC.QuantileSeconds(0.99) * 1e3,
			APCp999MS:       tel.APC.QuantileSeconds(0.999) * 1e3,
		}
		if row.Cycles > 0 {
			row.MissesPer10k = float64(row.Misses) / float64(row.Cycles) * 1e4
		}
		e.Close()
		res.Rows = append(res.Rows, row)
		budget := "ok"
		if row.Exhausted {
			budget = "BLOWN"
		}
		fprintf(o.Out, "  %-10s %8d %7d %10.1f %9s %9.3f %9.3f %9.3f\n",
			row.Strategy, row.Cycles, row.Misses, row.MissesPer10k, budget,
			row.APCp50MS, row.APCp99MS, row.APCp999MS)
	}
	fprintf(o.Out, "\npaper reference: ~5 misses / 10,000 cycles for the 4-thread parallel strategies (§V)\n\n")
	return res, nil
}
