package exp

import (
	"fmt"

	"djstar/internal/audio"
	"djstar/internal/engine"
	"djstar/internal/rescon"
	"djstar/internal/stats"
)

// DesignSpaceResult quantifies the §V strategy-selection argument: task
// scheduling vs software pipelining vs data parallelism under DJ Star's
// per-packet latency constraint.
type DesignSpaceResult struct {
	DeadlineUS float64
	// TaskLatencyUS is the per-packet latency of the chosen approach
	// (BUSY task scheduling, simulated on 4 threads).
	TaskLatencyUS float64
	// Pipeline is the software-pipelining model.
	Pipeline *rescon.PipelineResult
	// DataParallel2 and DataParallel4 are batch data-parallel models.
	DataParallel2 *rescon.DataParallelResult
	DataParallel4 *rescon.DataParallelResult
}

// DesignSpace reproduces the paper's §V design-space argument with
// numbers: the task graph "cannot be executed with a data parallel
// strategy on different audio packets, because the packets are not
// available in advance", and "the same argument holds for transforming
// the task graph into a pipeline". Both alternatives achieve competitive
// *throughput* but their per-packet *latency* is dominated by waiting for
// future packets or pipeline fill — with a 2.9 ms deadline per packet,
// only direct task scheduling fits.
func DesignSpace(opts Options) (*DesignSpaceResult, error) {
	opts.normalize()
	durs, plan, err := engine.MeasureNodeDurations(opts.graphConfig(), min(opts.Cycles, 1000))
	if err != nil {
		return nil, err
	}
	m, err := rescon.FromPlan(plan, durs)
	if err != nil {
		return nil, err
	}

	busy, err := m.Simulate(plan.RoundRobinLists(opts.MaxThreads), rescon.StrategyOverheads{CheckUS: 0.5 * opts.Scale})
	if err != nil {
		return nil, err
	}
	pipe, err := m.SimulatePipeline(plan.Depth, opts.MaxThreads)
	if err != nil {
		return nil, err
	}
	period := audio.StandardPacketPeriod.Seconds() * 1e6
	dp2, err := m.SimulateDataParallel(2, opts.MaxThreads, period)
	if err != nil {
		return nil, err
	}
	dp4, err := m.SimulateDataParallel(4, opts.MaxThreads, period)
	if err != nil {
		return nil, err
	}

	res := &DesignSpaceResult{
		DeadlineUS:    period,
		TaskLatencyUS: busy.MakespanUS,
		Pipeline:      pipe,
		DataParallel2: dp2,
		DataParallel4: dp4,
	}

	verdict := func(latency float64) string {
		if latency <= period {
			return "meets deadline"
		}
		return fmt.Sprintf("MISSES deadline (%.1fx)", latency/period)
	}
	fprintf(opts.Out, "§V design space: per-packet latency under the %.0f µs packet deadline\n", period)
	fprintf(opts.Out, "%s\n", stats.RenderTable(
		[]string{"approach", "latency µs", "throughput µs/pkt", "verdict"},
		[][]string{
			{
				fmt.Sprintf("task scheduling (BUSY, %d threads)", opts.MaxThreads),
				fmt.Sprintf("%.1f", busy.MakespanUS),
				fmt.Sprintf("%.1f", busy.MakespanUS),
				verdict(busy.MakespanUS),
			},
			{
				fmt.Sprintf("software pipeline (%d stages)", pipe.Stages),
				fmt.Sprintf("%.1f", pipe.LatencyUS),
				fmt.Sprintf("%.1f", pipe.InitiationIntervalUS),
				verdict(pipe.LatencyUS),
			},
			{
				"data parallel (batch 2)",
				fmt.Sprintf("%.1f", dp2.LatencyUS),
				fmt.Sprintf("%.1f", dp2.ThroughputIntervalUS),
				verdict(dp2.LatencyUS),
			},
			{
				"data parallel (batch 4)",
				fmt.Sprintf("%.1f", dp4.LatencyUS),
				fmt.Sprintf("%.1f", dp4.ThroughputIntervalUS),
				verdict(dp4.LatencyUS),
			},
		}))
	return res, nil
}
