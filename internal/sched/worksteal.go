package sched

import (
	"runtime"
	"sort"
	"sync/atomic"

	"djstar/internal/graph"
)

// WSOptions tune the work-stealing scheduler; the zero value is the
// paper's configuration. The alternatives exist for the design-choice
// ablations in the evaluation harness.
type WSOptions struct {
	// RoundRobinInit distributes source nodes round-robin instead of by
	// mixer section (ablation for the paper's locality argument, §V-C).
	RoundRobinInit bool
	// LockedDeque replaces the lock-free Chase–Lev deques with mutex
	// deques of identical policy (ablation for lock-free-ness).
	LockedDeque bool
}

// WorkSteal implements the work-stealing strategy (paper §V-C): every
// worker owns a deque holding only *ready* nodes (all dependencies met).
// Owners push and pop at the bottom (LIFO, cache-warm), thieves steal
// from the top (FIFO, oldest node — the one most likely to unlock further
// work). At cycle start each worker seeds its deque with the source nodes
// of "its" mixer sections; when a worker finishes a node it resolves the
// successors' dependency counters and pushes newly ready nodes locally.
// A worker with an empty deque steals; it sleeps only when every deque is
// empty and nodes remain blocked — exactly the behaviour in Fig. 11.
//
// WorkSteal is a wsPolicy over the shared execution core: the core owns
// the workers and the pending counters; the policy owns the deques and
// the mid-cycle parking machinery.
type WorkSteal struct {
	*core
	pol *wsPolicy
}

// NewWorkSteal returns a work-stealing scheduler; o.WS selects the
// design-choice variants (zero value = the paper's configuration).
func NewWorkSteal(p *graph.Plan, o Options) (*WorkSteal, error) {
	o = o.withDefaults()
	if err := checkThreads(p, o.Threads); err != nil {
		return nil, err
	}
	threads := o.Threads
	pol := &wsPolicy{threads: threads, opts: o.WS, wsPlan: newWSPlan(p, threads, o.WS)}
	pol.idle.init()
	return &WorkSteal{core: newCore(p, threads, o.Observer, pol, waitBlock), pol: pol}, nil
}

// wsPlan is WS's per-plan state: plan-sized deques and the per-worker
// source seed lists. Deques are empty between cycles, so replacing them
// at a swap loses nothing.
type wsPlan struct {
	deques  []dequeIface
	initial [][]int32 // per-worker source nodes, seeded each cycle
}

func newWSPlan(p *graph.Plan, threads int, opts WSOptions) wsPlan {
	deques := make([]dequeIface, threads)
	for w := range deques {
		if opts.LockedDeque {
			deques[w] = NewLockedDeque(p.Len() + 1)
		} else {
			deques[w] = NewDeque(p.Len() + 1)
		}
	}
	return wsPlan{deques: deques, initial: initialSources(p, threads, opts.RoundRobinInit)}
}

// initialSources assigns the dependency-free nodes to workers. With
// locality (default), all sources of one mixer section land on the same
// worker ("this supports data locality as nodes from the same section
// work on the same audio data"); otherwise plain round-robin.
//
// Each worker's seed list is then sorted by ascending upward rank. The
// lists are pushed bottom-first at cycle start, so the owner's first
// PopBottom (LIFO) takes its highest-rank source — critical-path-first —
// while thieves stealing from the top take the lowest-rank source, the
// one the owner would get to last.
func initialSources(p *graph.Plan, threads int, roundRobin bool) [][]int32 {
	out := make([][]int32, threads)
	if roundRobin {
		for i, id := range p.Sources() {
			w := i % threads
			out[w] = append(out[w], id)
		}
	} else {
		// Deterministic section order: decks A..D, master, control.
		sections := []graph.Section{
			graph.SectionDeckA, graph.SectionDeckB, graph.SectionDeckC,
			graph.SectionDeckD, graph.SectionMaster, graph.SectionControl,
		}
		w := 0
		for _, sec := range sections {
			srcs := p.SourcesBySection[sec]
			if len(srcs) == 0 {
				continue
			}
			out[w%threads] = append(out[w%threads], srcs...)
			w++
		}
	}
	for _, list := range out {
		list := list
		sort.SliceStable(list, func(a, b int) bool {
			return p.Rank[list[a]] < p.Rank[list[b]]
		})
	}
	return out
}

// Steals returns the cumulative successful steal count.
func (s *WorkSteal) Steals() int64 { return s.pol.steals.Load() }

// Parks returns the cumulative mid-cycle sleep count.
func (s *WorkSteal) Parks() int64 { return s.pol.parks.Load() }

// wsPolicy holds the strategy state of WorkSteal: per-worker deques of
// ready nodes, the cycle seed lists, and the mid-cycle parking machinery.
type wsPolicy struct {
	threads int
	opts    WSOptions
	wsPlan

	remaining atomic.Int32

	// idle parks a worker that finds no work; pushers wake it.
	idle parking

	// steals counts successful steals (diagnostics/ablation output).
	steals atomic.Int64
	// parks counts times a worker actually slept mid-cycle.
	parks atomic.Int64
}

func (pol *wsPolicy) name() string { return NameWorkSteal }

func (pol *wsPolicy) setPlan(p *graph.Plan, threads int) {
	pol.wsPlan = newWSPlan(p, threads, pol.opts)
}

// beginCycle resets the dependency and completion counters.
func (pol *wsPolicy) beginCycle(c *core) {
	c.resetPending()
	pol.remaining.Store(int32(c.plan.Len()))
}

// runCycle is one worker's participation in a graph iteration.
func (pol *wsPolicy) runCycle(c *core, w int32, gen uint64) {
	// Seed the local deque with this worker's sources. Each worker seeds
	// its own deque, keeping deque pushes owner-only.
	for _, id := range pol.initial[w] {
		pol.deques[w].PushBottom(id)
	}
	// Only the worker fills its own deque, so a node not popped from it
	// follows a steal attempt — a wait, stamped after.
	failedRounds, t := 0, c.stamp()
	for pol.remaining.Load() > 0 {
		id, ok := pol.deques[w].PopBottom()
		if !ok {
			id, ok = pol.trySteal(w)
			t = c.stamp()
		}
		if !ok {
			failedRounds++
			if failedRounds < 64 {
				runtime.Gosched()
				continue
			}
			if pol.idle.park(pol.cycleDone, pol.anyWork) {
				pol.parks.Add(1)
			}
			failedRounds = 0
			continue
		}
		failedRounds = 0
		t = pol.execute(c, id, w, gen, t)
	}
}

// execute runs node id from start stamp t, resolves its successors and
// returns its end stamp (a fresh one after a wake-up).
func (pol *wsPolicy) execute(c *core, id, w int32, gen uint64, t int64) int64 {
	t = c.run(id, w, gen, t)
	pushed := false
	for _, succ := range c.plan.SuccsOf(id) {
		if c.pending[succ].v.Add(-1) == 0 {
			// Newly ready: keep it local (LIFO, cache-warm).
			pol.deques[w].PushBottom(succ)
			pushed = true
		}
	}
	if pol.remaining.Add(-1) == 0 {
		pol.idle.wakeAll() // cycle complete: release any sleepers
	} else if pushed && pol.idle.wakeIfIdle() {
		t = c.stamp()
	}
	return t
}

// trySteal scans the other workers' deques starting after w.
func (pol *wsPolicy) trySteal(w int32) (int32, bool) {
	for i := 1; i < pol.threads; i++ {
		v := (int(w) + i) % pol.threads
		if id, ok := pol.deques[v].Steal(); ok {
			pol.steals.Add(1)
			return id, true
		}
	}
	return 0, false
}

// cycleDone reports whether every node of the cycle has run.
func (pol *wsPolicy) cycleDone() bool { return pol.remaining.Load() == 0 }

// anyWork reports whether any deque currently has a stealable node.
func (pol *wsPolicy) anyWork() bool {
	for _, d := range pol.deques {
		if !d.Empty() {
			return true
		}
	}
	return false
}
