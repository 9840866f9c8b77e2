// Package sched implements the paper's three parallelization strategies
// for the DJ Star task graph — busy-waiting, thread-sleeping and
// work-stealing (paper §V) — plus the sequential baseline they are
// compared against (§VI, Table I).
//
// All schedulers execute a compiled graph.Plan once per call to Execute.
// Workers are persistent goroutines pinned to OS threads; Execute is
// called from the audio engine once per 2.9 ms audio processing cycle, so
// per-cycle setup must be cheap and allocation-free.
//
// Memory model: a node's buffer writes are published to its successors
// through the per-node pending counters, which are manipulated with
// sync/atomic operations (sequentially consistent in Go); a successor
// therefore observes all effects of its predecessors.
package sched

import (
	"fmt"
	"runtime"

	"djstar/internal/graph"
)

// Observer receives the schedule realization of every cycle: the
// scheduler calls BeginCycle on the Execute caller before any worker is
// released, Record from whichever worker ran each node, and EndCycle on
// the Execute caller after the iteration completes. Record must be cheap,
// allocation-free and safe for concurrent calls from distinct workers
// (one node is recorded by exactly one worker per cycle). An Observer is
// installed at construction through Options and replaced only by a
// topology swap carrying a new one (Swap.Observer), which takes effect
// atomically between two cycles.
type Observer interface {
	// BeginCycle marks the start of an iteration (Execute caller thread).
	BeginCycle()
	// Record stores one node's execution window. Start and end are
	// graph.NowNanos timestamps; worker identifies the executing worker.
	// Each worker reads the clock once per node, when it completes: that
	// reading is the node's end and, when the worker goes straight on to
	// its next node, that node's start. After any wait (a dependency
	// spin, a park or a wake-up, a failed scan or steal, a cycle start)
	// the worker takes a fresh start stamp. A window is therefore the
	// node's dispatch plus its kernel, and never a wait; one worker's
	// windows do not overlap, and a successor's window may open before a
	// predecessor's on another worker closed, but closes after it.
	Record(node, worker int32, start, end int64)
	// EndCycle marks the end of the iteration (Execute caller thread,
	// after every node has completed).
	EndCycle()
}

// Options configure scheduler construction; the zero value means
// "1 thread, no observer, default work-stealing configuration".
type Options struct {
	// Threads is the worker count for parallel strategies (the Execute
	// caller participates as one of them). Ignored by NameSequential
	// (always 1), NewStatic (one per list) and Pool.Attach (a pool
	// session's parallelism is the pool's).
	Threads int
	// Observer, when non-nil, receives every cycle's schedule
	// realization. Must not be a typed nil pointer.
	Observer Observer
	// WS tunes the work-stealing strategy (ignored by the others).
	WS WSOptions
}

// withDefaults normalizes an Options value.
func (o Options) withDefaults() Options {
	if o.Threads == 0 {
		o.Threads = 1
	}
	return o
}

// Scheduler executes a compiled task graph, one full iteration per
// Execute call. Implementations are not safe for concurrent Execute
// calls; the audio engine serializes cycles by construction.
//
// There are two implementations — core (private workers, one policy per
// strategy) and PoolSession (shared workers) — and they share one
// lifecycle contract, enforced by the conformance tests: Close is
// idempotent, Execute panics after Close, and the construction-time
// Observer (if any) sees every cycle.
type Scheduler interface {
	// Name returns the strategy identifier ("seq", "busy", "sleep", "ws",
	// "sleepscan", "static", "pool").
	Name() string
	// Threads returns the worker count (1 for the sequential baseline).
	Threads() int
	// Execute runs every node of the plan exactly once, respecting
	// dependencies, and returns when the iteration is complete.
	Execute()
	// Close shuts down the worker pool. Close is idempotent; the
	// scheduler must not be used afterwards (Execute panics).
	Close()

	// Live topology swaps (see swap.go). StageSwap validates and records
	// a new compiled plan, from any goroutine; a later stage replaces an
	// unadopted earlier one. AdoptStaged builds the staged swap's epoch
	// and installs it — workers, fault counters and remapped
	// quarantine/shed state survive — from the Execute thread with no
	// cycle in flight; Execute also adopts a staged swap at its top. It
	// reports whether a swap was adopted.
	StageSwap(sw Swap) error
	AdoptStaged() bool

	// FaultState returns the session's fault-tolerance state (see
	// faulttol.go): every scheduler contains node panics — the cycle still
	// completes, the faulted node's output is flushed to silence, repeat
	// offenders are quarantined onto their bypass stand-in — and honours
	// the shed bits the engine's deadline governor sets there. The pointer
	// is the same for the scheduler's whole life.
	FaultState() *FaultState
}

// Strategy names accepted by New.
const (
	NameSequential = "seq"
	NameBusyWait   = "busy"
	NameSleep      = "sleep"
	NameWorkSteal  = "ws"
)

// Strategies lists the paper's strategy names in presentation order.
// Three additional executors exist beyond the paper's set, all accepted
// by New: NameSleepScan (the improved sleeper §V-B sketches), NameStatic
// (the offline MCFlow-style executor, with a default round-robin worker
// assignment when built through New), and NamePool, the shared-pool
// multi-session executor (through New a private single-session pool;
// NewPool + Pool.Attach to actually share one).
var Strategies = []string{NameSequential, NameBusyWait, NameSleep, NameWorkSteal}

// AllStrategies lists every strategy name New accepts but NamePool,
// paper strategies first. NamePool is accepted too but not listed: it is
// the other Scheduler implementation, and callers that sweep "every
// strategy" decide for themselves whether a pool belongs in the sweep.
var AllStrategies = []string{
	NameSequential, NameBusyWait, NameSleep, NameWorkSteal,
	NameSleepScan, NameStatic,
}

// New constructs a scheduler by strategy name: a list preset
// (listPresets) over the shared core, work-stealing, or a private
// single-session pool, closed with its session, of o.Threads-1 helpers
// for NamePool and none for NameSequential (the width-1 walk; o.Threads
// is ignored). NameStatic gets BUSY's assignment,
// graph.Plan.RoundRobinLists (use NewStatic to supply a computed schedule).
func New(name string, p *graph.Plan, o Options) (Scheduler, error) {
	o = o.withDefaults()
	switch name {
	case NameSequential:
		return newPrivatePool(name, 1, p, o)
	case NameWorkSteal:
		return NewWorkSteal(p, o)
	case NamePool:
		return newPrivatePool(name, o.Threads, p, o)
	}
	if err := checkThreads(p, o.Threads); err != nil {
		return nil, err
	}
	if _, ok := listPresets[name]; !ok {
		return nil, fmt.Errorf("sched: unknown strategy %q (want one of %v)",
			name, AllStrategies)
	}
	pol, mode := newListPolicy(name, p, p.RoundRobinLists(o.Threads))
	return newCore(p, o.Threads, o.Observer, pol, mode), nil
}

// checkThreads validates a worker count against the plan.
func checkThreads(p *graph.Plan, threads int) error {
	if p == nil || p.Len() == 0 {
		return fmt.Errorf("sched: empty plan")
	}
	if threads < 1 {
		return fmt.Errorf("sched: threads = %d, want >= 1", threads)
	}
	if threads > p.Len() {
		return fmt.Errorf("sched: threads = %d exceeds node count %d", threads, p.Len())
	}
	return nil
}

// spinYieldEvery is how many failed spin probes a waiter performs before
// yielding the processor once. Pure spinning matches the paper's strategy;
// the occasional Gosched keeps the program live on over-subscribed
// machines (more workers than free cores) without measurably changing
// behaviour when cores are available.
const spinYieldEvery = 2048

// spinWait spins until cond() is true.
func spinWait(cond func() bool) {
	for i := 1; !cond(); i++ {
		if i%spinYieldEvery == 0 {
			runtime.Gosched()
		}
	}
}

// stamp reads the scheduler clock when an observer is installed, and
// returns 0 without reading it otherwise. The clock is graph.NowNanos,
// the process's one monotonic base, so Observer.Record windows line up
// with the engine's stage stamps.
func stamp(o Observer) int64 {
	if o == nil {
		return 0
	}
	return graph.NowNanos()
}

// record closes node id's window on worker w: it takes the one stamp a
// node costs, records the window from start to it, and returns it — the
// next node's start when the worker goes straight on.
func record(o Observer, id, w int32, start int64) int64 {
	end := stamp(o)
	if o != nil {
		o.Record(id, w, start, end)
	}
	return end
}
