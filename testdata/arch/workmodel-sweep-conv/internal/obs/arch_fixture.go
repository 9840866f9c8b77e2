package obs

import "djstar/internal/graph"

// A second longest-path sweep over successors whose per-node cost sits
// inside a conversion.
func upwardRank(p *graph.Plan, c []int64) []float64 {
	rank := make([]float64, p.Len())
	for id := len(rank) - 1; id >= 0; id-- {
		best := 0.0
		for _, s := range p.SuccsOf(int32(id)) {
			best = max(best, rank[s])
		}
		rank[id] = best + float64(c[id])
	}
	return rank
}
