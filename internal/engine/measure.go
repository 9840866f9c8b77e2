package engine

import (
	"fmt"

	"djstar/internal/graph"
	"djstar/internal/sched"
)

// MeasureNodeDurations runs a sequential engine over the graph for the
// given number of full APCs and returns each node's average execution
// time in microseconds, as its collector measured it — the paper's
// "average vertex computation time using 10k APC executions" (§IV) that
// feeds the RESCON simulation — together with the measured plan.
func MeasureNodeDurations(cfg graph.Config, cycles int) ([]float64, *graph.Plan, error) {
	if cycles < 1 {
		return nil, nil, fmt.Errorf("engine: cycles = %d, want >= 1", cycles)
	}
	e, err := New(Config{Graph: cfg, Strategy: sched.NameSequential})
	if err != nil {
		return nil, nil, err
	}
	defer e.Close()
	e.RunCycles(cycles)
	return e.Collector().NodeMeansUS(), e.Plan(), nil
}
