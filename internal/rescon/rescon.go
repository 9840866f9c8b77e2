// Package rescon stands in for the RESCON project-scheduling tool the
// paper uses (§IV and Fig. 12). Given the task graph and per-node
// durations it computes the earliest-start schedule at infinite
// processors (Fig. 4's critical path and concurrency: 295 µs and 33 in
// the paper), a list schedule for k processors (the optimal 4-core
// schedule, 324 µs) and the static executors' schedules on the lists
// their workers run, graph.Plan.RoundRobinLists (the paper simulated
// BUSY at 327 µs, within 8 % of the optimum). The sweeps are graph.Plan's.
package rescon

import (
	"fmt"
	"math"
	"sort"

	"djstar/internal/graph"
)

// Model is an immutable scheduling problem: a compiled plan — its
// dependencies, its queue order and its sweeps — weighted with per-node
// durations.
type Model struct {
	plan *graph.Plan
	dur  []float64 // microseconds
}

// PaperCostsUS returns the plan's design costs (DESIGN.md §4, Node.Cost)
// in µs at paper scale, each at its expected average (Cost.MeanUS) — how
// the paper's "average vertex computation time over 10k APC executions"
// feeds the RESCON simulation.
func PaperCostsUS(p *graph.Plan) []float64 {
	out := make([]float64, p.Len())
	for i, c := range p.Costs {
		out[i] = c.MeanUS()
	}
	return out
}

// FromPlan builds a model from a compiled graph plan and per-node
// durations in microseconds (indexed by node ID).
func FromPlan(p *graph.Plan, durUS []float64) (*Model, error) {
	if len(durUS) != p.Len() {
		return nil, fmt.Errorf("rescon: %d durations for %d nodes", len(durUS), p.Len())
	}
	for i, d := range durUS {
		if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			return nil, fmt.Errorf("rescon: bad duration %v for node %d (%s)", d, i, p.Names[i])
		}
	}
	return &Model{plan: p, dur: append([]float64(nil), durUS...)}, nil
}

// Len returns the task count.
func (m *Model) Len() int { return len(m.dur) }

// Name returns task i's name.
func (m *Model) Name(i int) string { return m.plan.Names[i] }

// TotalWork returns the sum of all durations (the 1-processor makespan).
func (m *Model) TotalWork() float64 {
	sum := 0.0
	for _, d := range m.dur {
		sum += d
	}
	return sum
}

// Result is a computed schedule.
type Result struct {
	// Strategy identifies how the schedule was produced.
	Strategy string
	// Threads is the processor count (0 = unbounded).
	Threads int
	// MakespanUS is the completion time of the last task.
	MakespanUS float64
	// Start and Finish give each task's window in µs.
	Start, Finish []float64
	// Proc is each task's processor, filled by the sweeps that have
	// processors (ListSchedule, Simulate); nil for EarliestStart.
	Proc []int32
	// PeakConcurrency is the maximum number of simultaneously running
	// tasks.
	PeakConcurrency int
	// WaitUS is the total time threads spent waiting on dependencies
	// (spinning for BUSY, sleeping for SLEEP); 0 for the relaxations.
	WaitUS float64
}

// finishResult fills the derived fields of r.
func (m *Model) finishResult(r *Result) {
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
func (m *Model) EarliestStart() *Result {
	finish, via := m.plan.EarliestFinish(m.dur)
	r := &Result{
		Strategy: "earliest-start",
		Start:    make([]float64, m.Len()),
		Finish:   finish,
	}
	for id, v := range via {
		if v >= 0 {
			r.Start[id] = finish[v]
		}
	}
	m.finishResult(r)
	return r
}

// ListSchedule computes a resource-constrained schedule for the given
// processor count using priority list scheduling with upward-rank
// (critical-path-to-sink) priorities — the standard heuristic for RCPSP
// relaxations and a tight stand-in for RESCON's optimal schedules on
// graphs of this shape.
func (m *Model) ListSchedule(procs int) (*Result, error) {
	if procs < 1 {
		return nil, fmt.Errorf("rescon: procs = %d, want >= 1", procs)
	}
	n := m.Len()
	rank := m.plan.UpwardRank(m.dur)

	// Priority order: higher rank first, ties by queue position.
	pos := make([]int, n)
	for i, id := range m.plan.Order {
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
		unresolved[i] = len(m.plan.PredsOf(int32(i)))
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
		for _, d := range m.plan.PredsOf(int32(pick)) {
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
		for _, s := range m.plan.SuccsOf(int32(pick)) {
			unresolved[s]--
		}
	}
	m.finishResult(r)
	return r, nil
}

// StrategyOverheads parameterizes the strategy simulations.
type StrategyOverheads struct {
	// CheckUS is the per-node cost of dequeuing and dependency checking
	// ("the small space between node executions", Fig. 11).
	CheckUS float64
	// WakeUS is the sleep/wake penalty paid by the SLEEP strategy each
	// time a thread blocks on an unmet dependency.
	WakeUS float64
}

// Simulate models a static list executor on the lists it runs
// (graph.Plan.RoundRobinLists): ov.CheckUS per node, and ov.WakeUS per
// dependency stall for SLEEP (0 for BUSY, which spins; Fig. 12).
func (m *Model) Simulate(lists [][]int32, ov StrategyOverheads) (*Result, error) {
	n := m.Len()
	r := &Result{
		Strategy: "busy-sim",
		Threads:  len(lists),
		Start:    make([]float64, n),
		Finish:   make([]float64, n),
		Proc:     make([]int32, n),
	}
	if ov.WakeUS > 0 {
		r.Strategy = "sleep-sim"
	}
	var err error
	if _, r.WaitUS, err = m.plan.ListFinish(lists, m.dur, ov.CheckUS, ov.WakeUS, r.Start, r.Finish); err != nil {
		return nil, err
	}
	for w, l := range lists {
		for _, id := range l {
			r.Proc[id] = int32(w)
		}
	}
	m.finishResult(r)
	return r, nil
}

// ConcurrencyProfile samples how many tasks run concurrently at uniform
// time steps across the schedule (the curve shape of Fig. 4). It returns
// the sample vector; sample i covers time [i*dt, (i+1)*dt).
func ConcurrencyProfile(r *Result, samples int) []int {
	if samples < 1 || r.MakespanUS <= 0 {
		return nil
	}
	dt := r.MakespanUS / float64(samples)
	out := make([]int, samples)
	for i := range r.Start {
		s := int(r.Start[i] / dt)
		f := int(math.Ceil(r.Finish[i]/dt)) - 1
		if f >= samples {
			f = samples - 1
		}
		if r.Finish[i] <= r.Start[i] {
			continue // zero-duration task
		}
		for k := s; k <= f; k++ {
			if k >= 0 && k < samples {
				out[k]++
			}
		}
	}
	return out
}

// Efficiency returns how close schedule r is to the resource-constrained
// lower bound max(TotalWork/threads, criticalPath): 1.0 means optimal.
func (m *Model) Efficiency(r *Result) float64 {
	if r.MakespanUS <= 0 || r.Threads < 1 {
		return 0
	}
	return graph.MakespanLowerBound(m.TotalWork(), m.CriticalPathUS(), r.Threads) / r.MakespanUS
}

// CriticalPathUS returns the earliest-start makespan — the critical
// path length at unbounded parallelism, the absolute lower bound on any
// execution of the model.
func (m *Model) CriticalPathUS() float64 {
	_, cp := m.plan.CriticalPath(m.dur)
	return cp
}

// GrahamBound is Graham's greedy-scheduling upper bound for any
// work-conserving executor on procs identical workers:
//
//	makespan ≤ CP + (W − CP) / m
//
// At every instant before the critical path finishes, either the path
// is progressing or all m workers are busy on surplus work, of which
// there is at most W − CP. The bound is monotone in both W and CP under
// added nodes and edges — the property the admission monotonicity suite
// pins down.
func GrahamBound(totalWorkUS, critPathUS float64, procs int) float64 {
	if procs < 1 {
		procs = 1
	}
	surplus := totalWorkUS - critPathUS
	if surplus < 0 {
		surplus = 0
	}
	return critPathUS + surplus/float64(procs)
}
