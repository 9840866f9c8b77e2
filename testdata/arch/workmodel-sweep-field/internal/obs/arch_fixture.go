package obs

import "djstar/internal/graph"

// A second longest-path sweep that reads the cost through a field of an
// indexed entry, after the loop over predecessors has closed.
func longestPathField(p *graph.Plan) []float64 {
	finish := make([]float64, p.Len())
	for id := range finish {
		ready := 0.0
		for _, pr := range p.PredsOf(int32(id)) {
			ready = max(ready, finish[pr])
		}
		finish[id] = ready + p.Costs[id].BaseUS
	}
	return finish
}
