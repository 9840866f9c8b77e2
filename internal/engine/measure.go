package engine

import (
	"fmt"

	"djstar/internal/graph"
	"djstar/internal/sched"
)

// MeasureNodeDurations runs the engine's graph sequentially for the given
// number of cycles with a tracer installed and returns each node's average
// execution time in microseconds — the paper's "average vertex computation
// time using 10k APC executions" (§IV) that feeds the RESCON simulation.
//
// It builds its own sequential scheduler over the engine's plan so the
// engine's configured strategy is untouched.
func MeasureNodeDurations(cfg graph.Config, cycles int) ([]float64, *graph.Plan, error) {
	if cycles < 1 {
		return nil, nil, fmt.Errorf("engine: cycles = %d, want >= 1", cycles)
	}
	session, g, err := graph.BuildDJStar(cfg)
	if err != nil {
		return nil, nil, err
	}
	plan, err := g.Compile()
	if err != nil {
		return nil, nil, err
	}
	tr := sched.NewTracer(plan.Len())
	s, err := sched.New(sched.NameSequential, plan, sched.Options{Observer: tr})
	if err != nil {
		return nil, nil, err
	}
	defer s.Close()

	sums := make([]float64, plan.Len())
	for c := 0; c < cycles; c++ {
		session.Prepare()
		s.Execute()
		for _, e := range tr.Events() {
			sums[e.Node] += float64(e.End-e.Start) / 1e3 // ns → µs
		}
	}
	for i := range sums {
		sums[i] /= float64(cycles)
	}
	return sums, plan, nil
}
