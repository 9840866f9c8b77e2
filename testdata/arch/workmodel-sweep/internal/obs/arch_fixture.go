package obs

import "djstar/internal/graph"

// A second longest-path sweep.
func longestPath(p *graph.Plan, cost []float64) []float64 {
	finish := make([]float64, p.Len())
	for id := range finish {
		ready := 0.0
		for _, pr := range p.PredsOf(int32(id)) {
			ready = max(ready, finish[pr])
		}
		finish[id] = ready + cost[id]
	}
	return finish
}
