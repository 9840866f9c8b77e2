package rescon

import "djstar/internal/graph"

// A copy of the plan's adjacency.
func adjacency(p *graph.Plan) [][]int32 { return p.PredLists() }
