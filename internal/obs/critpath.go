package obs

import (
	"fmt"
	"strings"

	"djstar/internal/graph"
)

// Critical-path analysis: the longest dependency-weighted path through
// the plan under measured node durations. Its length is the
// infinite-processor makespan (the paper's 295 µs bound for the 67-node
// graph); TotalWork/Length is the average parallelism — the RESCON-style
// resource-unconstrained bound every strategy's measured makespan is
// judged against.

// PathStat describes the critical path of a plan under a set of node
// durations.
type PathStat struct {
	// Nodes is the path's node chain in execution order, Names the
	// corresponding node names.
	Nodes []int32  `json:"nodes"`
	Names []string `json:"names"`
	// LengthUS is the path length — the infinite-processor makespan.
	LengthUS float64 `json:"length_us"`
	// TotalWorkUS is the sum of all node durations.
	TotalWorkUS float64 `json:"total_work_us"`
	// Parallelism is TotalWorkUS / LengthUS, the graph's average
	// parallelism under these durations.
	Parallelism float64 `json:"parallelism"`
}

// CriticalPath computes the longest weighted path through the plan with
// durUS (microseconds, indexed by node ID) as node weights. Zero-weight
// nodes are legal; dependencies still route the path through them.
func CriticalPath(p *graph.Plan, durUS []float64) PathStat {
	var ps PathStat
	ps.Nodes, ps.LengthUS = p.CriticalPath(durUS)
	for _, id := range p.Order {
		ps.TotalWorkUS += durUS[id]
	}
	if ps.Nodes != nil {
		ps.Names = make([]string, len(ps.Nodes))
		for i, id := range ps.Nodes {
			ps.Names[i] = p.Names[id]
		}
	}
	if ps.LengthUS > 0 {
		ps.Parallelism = ps.TotalWorkUS / ps.LengthUS
	}
	return ps
}

// Bound returns the lower bound on the makespan achievable with the
// given thread count: max(critical path, total work / threads) — the
// RESCON-style resource-constrained bound.
func (ps PathStat) Bound(threads int) float64 {
	return graph.MakespanLowerBound(ps.TotalWorkUS, ps.LengthUS, threads)
}

// Efficiency returns Bound(threads)/measuredUS — 1.0 means the measured
// makespan achieves the theoretical bound (the paper reports 99 % for
// BUSY at 4 threads).
func (ps PathStat) Efficiency(measuredUS float64, threads int) float64 {
	if measuredUS <= 0 {
		return 0
	}
	return ps.Bound(threads) / measuredUS
}

// String renders the chain compactly: length, parallelism and the node
// names joined by arrows.
func (ps PathStat) String() string {
	return fmt.Sprintf("critical path %.1f µs, total work %.1f µs, parallelism %.1f: %s",
		ps.LengthUS, ps.TotalWorkUS, ps.Parallelism, strings.Join(ps.Names, " → "))
}
