package exp

import (
	"fmt"

	"djstar/internal/sched"
	"djstar/internal/stats"
)

// Table1Result holds the average task-graph response times (paper Table I)
// plus the sequential baseline used for the speedup figure.
type Table1Result struct {
	// SeqMeanMS is the sequential (1-thread FIFO queue) mean graph time.
	SeqMeanMS float64
	// MeanMS[strategy][t] is the mean graph time with t+1 threads.
	MeanMS map[string][]float64
	// Threads lists the evaluated thread counts (1..MaxThreads).
	Threads []int
}

// Speedup returns the strategy's speedup over sequential at the given
// thread count.
func (r *Table1Result) Speedup(strategy string, threads int) float64 {
	cells := r.MeanMS[strategy]
	for i, t := range r.Threads {
		if t == threads && i < len(cells) && cells[i] > 0 {
			return r.SeqMeanMS / cells[i]
		}
	}
	return 0
}

// Table1 reproduces Table I: average task-graph response times in
// milliseconds for BUSY, SLEEP and WS across 1..MaxThreads threads, over
// Cycles iterations each.
func Table1(opts Options) (*Table1Result, error) {
	opts.normalize()
	res := &Table1Result{MeanMS: map[string][]float64{}}
	for t := 1; t <= opts.MaxThreads; t++ {
		res.Threads = append(res.Threads, t)
	}

	seq, err := opts.runEngine(sched.NameSequential, 1, false)
	if err != nil {
		return nil, err
	}
	res.SeqMeanMS = seq.GraphMeanMS()

	for _, name := range ParallelStrategies {
		for _, t := range res.Threads {
			m, err := opts.runEngine(name, t, false)
			if err != nil {
				return nil, err
			}
			res.MeanMS[name] = append(res.MeanMS[name], m.GraphMeanMS())
		}
	}

	// Render the table in the paper's layout.
	header := []string{"Threads"}
	for _, t := range res.Threads {
		header = append(header, fmt.Sprintf("%d", t))
	}
	var rows [][]string
	display := map[string]string{
		sched.NameBusyWait: "BUSY", sched.NameSleep: "SLEEP", sched.NameWorkSteal: "WS",
	}
	for _, name := range ParallelStrategies {
		row := []string{display[name]}
		for _, v := range res.MeanMS[name] {
			row = append(row, fmt.Sprintf("%.4f", v))
		}
		rows = append(rows, row)
	}
	fprintf(opts.Out, "Table I: task graph average response times (ms), %d cycles\n", opts.Cycles)
	fprintf(opts.Out, "(sequential baseline: %.4f ms)\n", res.SeqMeanMS)
	fprintf(opts.Out, "%s\n", stats.RenderTable(header, rows))
	return res, nil
}

// Fig8Result holds the speedup curves of Fig. 8.
type Fig8Result struct {
	Table *Table1Result
}

// Fig8 reproduces Fig. 8: speedup of each strategy over the sequential
// execution for 1..MaxThreads threads (paper: up to 2.4 at four threads).
func Fig8(opts Options) (*Fig8Result, error) {
	opts.normalize()
	t1, err := Table1(opts)
	if err != nil {
		return nil, err
	}
	header := []string{"Threads"}
	for _, t := range t1.Threads {
		header = append(header, fmt.Sprintf("%d", t))
	}
	var rows [][]string
	for _, name := range ParallelStrategies {
		row := []string{name}
		for _, t := range t1.Threads {
			row = append(row, fmt.Sprintf("%.2f", t1.Speedup(name, t)))
		}
		rows = append(rows, row)
	}
	fprintf(opts.Out, "Fig. 8: speedup over sequential execution\n")
	fprintf(opts.Out, "%s\n", stats.RenderTable(header, rows))
	return &Fig8Result{Table: t1}, nil
}
