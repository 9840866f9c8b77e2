package sched

import (
	"cmp"
	"fmt"
	"slices"

	"djstar/internal/graph"
)

// NameStatic is the strategy identifier for the offline executor.
const NameStatic = "static"

// NewStatic returns the offline executor: each worker runs a fixed,
// externally supplied node list in order, busy-waiting on dependencies
// exactly like BUSY (the same listPolicy preset — the strategies are
// identical at run time and differ only in where the lists come from).
// It models the MCFlow-style offline-scheduling alternative the paper's
// related work contrasts with ("the scheduling decision in MCFlow is
// taken offline while we use an online scheduling which enables us to
// dynamically load-balance"): with imbalanced, data-dependent node costs
// a static assignment computed from average durations cannot adapt, which
// is measurable in the ablation harness.
//
// len(lists) is the worker count (o.Threads is ignored). Every node must
// appear exactly once across the lists, and each
// list must be dependency-consistent with the plan's queue order in the
// sense that execution can always make progress (any assignment is safe
// for liveness here because workers busy-wait on cross-list dependencies;
// a poor assignment only costs time — but an assignment where two workers
// wait on each other's *later* nodes would deadlock, so lists must be
// consistent with some global topological order; assignments derived from
// a schedule, e.g. rescon.Result, always are).
func NewStatic(p *graph.Plan, lists [][]int32, o Options) (Scheduler, error) {
	if p == nil || p.Len() == 0 {
		return nil, fmt.Errorf("sched: empty plan")
	}
	if len(lists) < 1 {
		return nil, fmt.Errorf("sched: static schedule needs at least one worker list")
	}
	seen := make([]bool, p.Len())
	count := 0
	for _, l := range lists {
		for _, id := range l {
			if id < 0 || int(id) >= p.Len() {
				return nil, fmt.Errorf("sched: static schedule references node %d of %d", id, p.Len())
			}
			if seen[id] {
				return nil, fmt.Errorf("sched: node %d (%s) assigned twice", id, p.Names[id])
			}
			seen[id] = true
			count++
		}
	}
	if count != p.Len() {
		return nil, fmt.Errorf("sched: static schedule covers %d of %d nodes", count, p.Len())
	}
	pol, mode := newListPolicy(NameStatic, p, lists)
	return newCore(p, len(lists), o.Observer, pol, mode), nil
}

// FromScheduleOrder builds per-worker lists from a processor assignment
// and start times (e.g. a rescon.Result): worker w's list is its assigned
// nodes sorted by scheduled start.
func FromScheduleOrder(p *graph.Plan, proc []int32, start []float64, workers int) ([][]int32, error) {
	if len(proc) != p.Len() || len(start) != p.Len() {
		return nil, fmt.Errorf("sched: schedule arrays have length %d/%d, want %d",
			len(proc), len(start), p.Len())
	}
	lists := make([][]int32, workers)
	// Insert nodes in global start order so each list is start-sorted.
	order := make([]int32, p.Len())
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(start[a], start[b]) })
	for _, id := range order {
		w := int(proc[id])
		if w < 0 || w >= workers {
			return nil, fmt.Errorf("sched: node %d assigned to processor %d of %d", id, w, workers)
		}
		lists[w] = append(lists[w], id)
	}
	return lists, nil
}
