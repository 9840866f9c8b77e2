package exp

import (
	"djstar/internal/engine"
	"djstar/internal/obs"
)

// CritPathRow is one strategy's measured-vs-bound comparison.
type CritPathRow struct {
	Strategy string
	Threads  int
	// MeasuredUS is the mean measured graph execution time.
	MeasuredUS float64
	// CritPathUS is the critical path under the run's measured node means.
	CritPathUS float64
	// BoundUS is the RESCON-style lower bound max(CP, work/threads).
	BoundUS float64
	// Efficiency is BoundUS / MeasuredUS (1.0 = optimal schedule).
	Efficiency float64
}

// CritPathResult is the R3 efficiency table: how close each online
// strategy comes to the schedule-theoretic lower bound of its own run.
type CritPathResult struct {
	// Path is the critical path of the busy-wait run (the arms differ
	// only by measurement noise across strategies).
	Path obs.PathStat
	Rows []CritPathRow
}

// CritPath measures every parallel strategy with the always-on collector
// and compares the mean graph time against the critical-path bound
// computed from that same run's measured node means — the experiment
// behind EXPERIMENTS.md R3. The invariant CP ≤ Bound ≤ measured is also
// what cmd/djanalyze -graph and the property tests check.
func CritPath(o Options) (*CritPathResult, error) {
	o.normalize()
	res := &CritPathResult{}
	fprintf(o.Out, "Schedule efficiency against the critical-path bound (%d cycles, scale %.2f, %d threads)\n\n",
		o.Cycles, o.Scale, o.MaxThreads)
	fprintf(o.Out, "  %-10s %12s %12s %12s %11s\n", "strategy", "measured µs", "critpath µs", "bound µs", "efficiency")
	for _, name := range ParallelStrategies {
		cfg := engine.Config{
			Graph:     o.graphConfig(),
			Strategy:  name,
			Threads:   o.MaxThreads,
			DisableGC: o.Scale >= 0.5,
		}
		e, err := engine.New(cfg)
		if err != nil {
			return nil, err
		}
		e.WarmUp(o.Cycles)
		m := e.RunCycles(o.Cycles)
		ps, ok := e.CriticalPath()
		e.Close()
		if !ok {
			continue
		}
		row := CritPathRow{
			Strategy:   name,
			Threads:    o.MaxThreads,
			MeasuredUS: m.GraphMeanMS() * 1e3,
			CritPathUS: ps.LengthUS,
			BoundUS:    ps.Bound(o.MaxThreads),
			Efficiency: ps.Efficiency(m.GraphMeanMS()*1e3, o.MaxThreads),
		}
		res.Rows = append(res.Rows, row)
		if name == ParallelStrategies[0] {
			res.Path = ps
		}
		fprintf(o.Out, "  %-10s %12.1f %12.1f %12.1f %10.1f%%\n",
			row.Strategy, row.MeasuredUS, row.CritPathUS, row.BoundUS, 100*row.Efficiency)
	}
	fprintf(o.Out, "\ncritical path (busy-wait run): %s\n", res.Path.String())
	fprintf(o.Out, "parallelism (work / critical path): %.2f\n\n", res.Path.Parallelism)
	return res, nil
}
