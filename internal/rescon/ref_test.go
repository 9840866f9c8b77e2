package rescon

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"djstar/internal/graph"
)

// The reference implementations the oracle tests (oracle_test.go) hold
// the plan-backed model to: the copied-adjacency model with its own
// longest-path sweeps, and the name-keyed design-cost table, kept
// verbatim (renamed).

// refModel is an immutable scheduling problem: tasks with durations and
// dependencies, plus the queue order used by the static strategies.
type refModel struct {
	names []string
	dur   []float64 // microseconds
	preds [][]int32
	succs [][]int32
	order []int32
}

// refFromPlan builds a model from a compiled graph plan and per-node
// durations in microseconds (indexed by node ID).
func refFromPlan(p *graph.Plan, durUS []float64) (*refModel, error) {
	if len(durUS) != p.Len() {
		return nil, fmt.Errorf("rescon: %d durations for %d nodes", len(durUS), p.Len())
	}
	for i, d := range durUS {
		if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			return nil, fmt.Errorf("rescon: bad duration %v for node %d (%s)", d, i, p.Names[i])
		}
	}
	return &refModel{
		names: p.Names,
		dur:   append([]float64(nil), durUS...),
		preds: p.PredLists(),
		succs: refSuccLists(p),
		order: p.Order,
	}, nil
}

// Len returns the task count.
func (m *refModel) Len() int { return len(m.dur) }

// Name returns task i's name.
func (m *refModel) Name(i int) string { return m.names[i] }

// Duration returns task i's duration in µs.
func (m *refModel) Duration(i int) float64 { return m.dur[i] }

// TotalWork returns the sum of all durations (the 1-processor makespan).
func (m *refModel) TotalWork() float64 {
	sum := 0.0
	for _, d := range m.dur {
		sum += d
	}
	return sum
}

// computeMakespanAndPeak fills the derived fields of r.
func (m *refModel) finishResult(r *Result) {
	mk := 0.0
	for _, f := range r.Finish {
		if f > mk {
			mk = f
		}
	}
	r.MakespanUS = mk
	// Peak concurrency by sweeping start/finish events.
	type ev struct {
		t     float64
		delta int
	}
	evs := make([]ev, 0, 2*len(r.Start))
	for i := range r.Start {
		evs = append(evs, ev{r.Start[i], +1}, ev{r.Finish[i], -1})
	}
	sort.Slice(evs, func(a, b int) bool {
		if evs[a].t != evs[b].t {
			return evs[a].t < evs[b].t
		}
		return evs[a].delta < evs[b].delta // finish before start at ties
	})
	cur, peak := 0, 0
	for _, e := range evs {
		cur += e.delta
		if cur > peak {
			peak = cur
		}
	}
	r.PeakConcurrency = peak
}

// EarliestStart computes the infinite-processor earliest-start schedule:
// every task starts the moment its last dependency finishes. The makespan
// equals the critical-path length; the peak concurrency is the paper's
// "maximum concurrency in the graph" (33 for the standard graph).
func (m *refModel) EarliestStart() *Result {
	n := m.Len()
	r := &Result{
		Strategy: "earliest-start",
		Threads:  0,
		Start:    make([]float64, n),
		Finish:   make([]float64, n),
		Proc:     make([]int32, n),
	}
	// Process in a dependency-respecting order (the queue order is one).
	for _, id := range m.order {
		st := 0.0
		for _, d := range m.preds[id] {
			if f := r.Finish[d]; f > st {
				st = f
			}
		}
		r.Start[id] = st
		r.Finish[id] = st + m.dur[id]
	}
	m.labelProcs(r)
	m.finishResult(r)
	return r
}

// labelProcs greedily assigns display processors so overlapping tasks get
// distinct rows (interval-graph coloring by start time).
func (m *refModel) labelProcs(r *Result) {
	ids := make([]int, m.Len())
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool { return r.Start[ids[a]] < r.Start[ids[b]] })
	var procFree []float64
	const eps = 1e-9
	for _, id := range ids {
		placed := false
		for p := range procFree {
			if procFree[p] <= r.Start[id]+eps {
				r.Proc[id] = int32(p)
				procFree[p] = r.Finish[id]
				placed = true
				break
			}
		}
		if !placed {
			r.Proc[id] = int32(len(procFree))
			procFree = append(procFree, r.Finish[id])
		}
	}
}

// ListSchedule computes a resource-constrained schedule for the given
// processor count using priority list scheduling with upward-rank
// (critical-path-to-sink) priorities — the standard heuristic for RCPSP
// relaxations and a tight stand-in for RESCON's optimal schedules on
// graphs of this shape.
func (m *refModel) ListSchedule(procs int) (*Result, error) {
	if procs < 1 {
		return nil, fmt.Errorf("rescon: procs = %d, want >= 1", procs)
	}
	n := m.Len()
	rank := m.upwardRank()

	// Priority order: higher rank first, ties by queue position.
	pos := make([]int, n)
	for i, id := range m.order {
		pos[id] = i
	}
	prio := make([]int, n)
	for i := range prio {
		prio[i] = i
	}
	sort.Slice(prio, func(a, b int) bool {
		if rank[prio[a]] != rank[prio[b]] {
			return rank[prio[a]] > rank[prio[b]]
		}
		return pos[prio[a]] < pos[prio[b]]
	})

	r := &Result{
		Strategy: "list-schedule",
		Threads:  procs,
		Start:    make([]float64, n),
		Finish:   make([]float64, n),
		Proc:     make([]int32, n),
	}
	scheduled := make([]bool, n)
	unresolved := make([]int, n)
	for i := range unresolved {
		unresolved[i] = len(m.preds[i])
	}
	procFree := make([]float64, procs)

	for count := 0; count < n; count++ {
		// Pick the highest-priority ready task.
		pick := -1
		for _, id := range prio {
			if !scheduled[id] && unresolved[id] == 0 {
				pick = id
				break
			}
		}
		if pick == -1 {
			return nil, fmt.Errorf("rescon: no ready task (cycle in model?)")
		}
		ready := 0.0
		for _, d := range m.preds[pick] {
			if f := r.Finish[d]; f > ready {
				ready = f
			}
		}
		// Processor giving the earliest start.
		best := 0
		for p := 1; p < procs; p++ {
			if procFree[p] < procFree[best] {
				best = p
			}
		}
		st := math.Max(ready, procFree[best])
		r.Start[pick] = st
		r.Finish[pick] = st + m.dur[pick]
		r.Proc[pick] = int32(best)
		procFree[best] = r.Finish[pick]
		scheduled[pick] = true
		for _, s := range m.succs[pick] {
			unresolved[s]--
		}
	}
	m.finishResult(r)
	return r, nil
}

// upwardRank returns, per task, the longest duration path from the task
// (inclusive) to any sink.
func (m *refModel) upwardRank() []float64 {
	n := m.Len()
	rank := make([]float64, n)
	// Process in reverse queue order: successors before predecessors.
	for i := n - 1; i >= 0; i-- {
		id := m.order[i]
		best := 0.0
		for _, s := range m.succs[id] {
			if rank[s] > best {
				best = rank[s]
			}
		}
		rank[id] = best + m.dur[id]
	}
	return rank
}

// SimulateBusy models the busy-waiting strategy: the depth-ordered queue
// is split round-robin over the threads, each thread runs its list in
// order and spins until the current node's dependencies are met. This is
// the simulation the paper ran in RESCON and reported at 327 µs.
func (m *refModel) SimulateBusy(threads int, ov StrategyOverheads) (*Result, error) {
	return m.simulateStatic("busy-sim", threads, ov, false)
}

// SimulateSleep models the thread-sleeping strategy: identical assignment,
// but each dependency stall additionally pays the wake-up latency.
func (m *refModel) SimulateSleep(threads int, ov StrategyOverheads) (*Result, error) {
	return m.simulateStatic("sleep-sim", threads, ov, true)
}

func (m *refModel) simulateStatic(name string, threads int, ov StrategyOverheads, sleep bool) (*Result, error) {
	if threads < 1 {
		return nil, fmt.Errorf("rescon: threads = %d, want >= 1", threads)
	}
	n := m.Len()
	r := &Result{
		Strategy: name,
		Threads:  threads,
		Start:    make([]float64, n),
		Finish:   make([]float64, n),
		Proc:     make([]int32, n),
	}
	threadTime := make([]float64, threads)
	// Nodes in global queue order: every predecessor of a node appears
	// earlier, so its finish time is already known when we reach the node.
	for i, id := range m.order {
		w := i % threads
		ready := 0.0
		for _, d := range m.preds[id] {
			if f := r.Finish[d]; f > ready {
				ready = f
			}
		}
		st := threadTime[w] + ov.CheckUS
		if ready > st {
			// The thread stalls on a dependency.
			wait := ready - st
			r.WaitUS += wait
			st = ready
			if sleep {
				st += ov.WakeUS
			}
		}
		r.Start[id] = st
		r.Finish[id] = st + m.dur[id]
		r.Proc[id] = int32(w)
		threadTime[w] = r.Finish[id]
	}
	m.finishResult(r)
	return r, nil
}

// Efficiency returns how close schedule r is to the resource-constrained
// lower bound max(TotalWork/threads, criticalPath): 1.0 means optimal.
func (m *refModel) Efficiency(r *Result) float64 {
	if r.MakespanUS <= 0 || r.Threads < 1 {
		return 0
	}
	cp := m.EarliestStart().MakespanUS
	lower := math.Max(m.TotalWork()/float64(r.Threads), cp)
	return lower / r.MakespanUS
}

// CriticalPathUS returns the earliest-start makespan — the critical
// path length at unbounded parallelism, the absolute lower bound on any
// execution of the model.
func (m *refModel) CriticalPathUS() float64 {
	return m.EarliestStart().MakespanUS
}

// refSuccLists materializes the per-node successor lists (allocates;
// entries are always non-nil, like PredLists).
func refSuccLists(p *graph.Plan) [][]int32 {
	out := make([][]int32, p.Len())
	for i := range out {
		seg := p.SuccsOf(int32(i))
		out[i] = make([]int32, len(seg))
		copy(out[i], seg)
	}
	return out
}

func refPaperCostFor(name string) float64 {
	avg := func(c graph.Cost) float64 { return c.BaseUS + c.DataUS/2 }
	switch {
	case strings.HasPrefix(name, "SP"):
		return avg(graph.CostSP)
	case strings.HasPrefix(name, "FX"):
		return avg(graph.CostFX)
	case strings.HasPrefix(name, "Channel"):
		return avg(graph.CostChannel)
	case name == "Mixer":
		return avg(graph.CostMixer)
	case name == "MasterBuffer":
		return avg(graph.CostMaster)
	case name == "AudioOut1":
		return avg(graph.CostOut)
	case name == "RecordBuffer":
		return avg(graph.CostRecord)
	case name == "CueBuffer":
		return avg(graph.CostCue)
	case name == "MonitorBuffer":
		return avg(graph.CostMonitor)
	case name == "Sampler":
		return avg(graph.CostSampler)
	case strings.HasPrefix(name, "Ctrl"):
		return avg(graph.CostControl)
	default: // metering nodes
		return avg(graph.CostMeter)
	}
}
