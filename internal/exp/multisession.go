package exp

import (
	"fmt"
	"sync"

	"djstar/internal/engine"
	"djstar/internal/sched"
	"djstar/internal/stats"
)

// MultiSessionResult holds the shared-pool scaling experiment: K
// concurrent DJ sessions executing over one worker pool, against the
// baseline of one session owning all the workers.
type MultiSessionResult struct {
	// Sessions counts per row of the sweep.
	Sessions []int
	// GraphMeanMS[i] is the mean per-cycle graph time averaged across
	// the Sessions[i] concurrent sessions.
	GraphMeanMS []float64
	// GraphMaxMS[i] is the worst per-cycle graph time across sessions.
	GraphMaxMS []float64
	// SingleMS is the one-session baseline mean.
	SingleMS float64
}

// poolEngines attaches k ungated engines built from cfg to one fresh
// shared pool of the given helper worker count — the hand-driven
// counterpart of a one-shard fleet, for experiments that must own the
// cycle loop. closeAll closes the engines, then the pool.
func poolEngines(cfg engine.Config, k, workers int) (engines []*engine.Engine, closeAll func(), err error) {
	pool, err := sched.NewPool(workers, k)
	if err != nil {
		return nil, nil, err
	}
	closeAll = func() {
		for _, e := range engines {
			e.Close()
		}
		pool.Close()
	}
	cfg.Pool = pool
	for i := 0; i < k; i++ {
		e, err := engine.New(cfg)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		engines = append(engines, e)
	}
	return engines, closeAll, nil
}

// MultiSession measures shared-pool multi-session scheduling: 1, 2 and 4
// concurrent sessions over a pool of MaxThreads-1 helper workers (every
// session's driving goroutine participates too, so hardware parallelism
// matches the single-engine strategies). It answers the capacity
// question the paper's single-app setting never poses: how does
// per-session graph time degrade as sessions share the workers?
func MultiSession(opts Options) (*MultiSessionResult, error) {
	opts.normalize()
	res := &MultiSessionResult{}
	cfg := engine.Config{
		Graph: opts.graphConfig(),
	}
	var rows [][]string
	for _, sessions := range []int{1, 2, 4} {
		engines, closeAll, err := poolEngines(cfg, sessions, opts.MaxThreads-1)
		if err != nil {
			return nil, err
		}
		// Warm-up fills delay lines and faults in per-session memory.
		for _, e := range engines {
			e.WarmUp(opts.Cycles)
		}
		// One driving goroutine per session, all sharing the pool's workers.
		metrics := make([]*engine.Metrics, len(engines))
		var wg sync.WaitGroup
		for i, e := range engines {
			wg.Add(1)
			go func(i int, e *engine.Engine) {
				defer wg.Done()
				metrics[i] = e.RunCycles(opts.Cycles)
			}(i, e)
		}
		wg.Wait()
		closeAll()

		mean, worst := 0.0, 0.0
		for _, mm := range metrics {
			mean += mm.GraphMeanMS()
			if mm.GraphMaxMS() > worst {
				worst = mm.GraphMaxMS()
			}
		}
		mean /= float64(len(metrics))
		res.Sessions = append(res.Sessions, sessions)
		res.GraphMeanMS = append(res.GraphMeanMS, mean)
		res.GraphMaxMS = append(res.GraphMaxMS, worst)
		if sessions == 1 {
			res.SingleMS = mean
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", sessions),
			fmt.Sprintf("%.4f", mean),
			fmt.Sprintf("%.4f", worst),
			fmt.Sprintf("%.2fx", mean/res.SingleMS),
		})
	}
	fprintf(opts.Out, "shared-pool multi-session scaling (%d helper workers + 1 caller per session)\n",
		opts.MaxThreads-1)
	fprintf(opts.Out, "%s", stats.RenderTable(
		[]string{"sessions", "mean graph ms", "worst ms", "vs 1 session"}, rows))
	fprintf(opts.Out, "per-session cycles stay serialized; sessions share one pinned worker pool\n\n")
	return res, nil
}
