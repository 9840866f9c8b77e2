package sched

import (
	"runtime"
	"sync/atomic"

	"djstar/internal/graph"
)

// policy is the strategy-specific part of a scheduler: how one worker
// selects and runs its share of a cycle, and how per-cycle policy state
// is reset. Everything else — worker spawning, OS-thread pinning, cycle
// dispatch, completion signaling, observer plumbing, topology swaps,
// teardown — lives in core and is shared by every strategy.
//
// A policy's runCycle must execute only nodes whose dependencies have
// completed this cycle, using the core's pending counters, and must
// return once the worker's share of the iteration is finished.
type policy interface {
	// name is the strategy identifier returned by Scheduler.Name.
	name() string
	// beginCycle resets per-cycle policy state. It runs on the Execute
	// caller before any worker is released.
	beginCycle(c *core)
	// runCycle is worker w's participation in the iteration gen.
	runCycle(c *core, w int32, gen uint64)
	// setPlan rebuilds the policy's per-plan state (node lists, executor
	// registrations, deques) for plan p in place, with the builder the
	// policy's constructor used. It runs on the Execute thread between
	// cycles (see core.AdoptStaged).
	setPlan(p *graph.Plan, threads int)
}

// waitMode is a policy's between-cycle worker discipline.
type waitMode int

const (
	// waitSpin keeps idle workers spinning on the generation counter
	// across cycle boundaries (BUSY, STATIC): zero wake-up cost.
	waitSpin waitMode = iota
	// waitBlock parks idle workers on a channel between cycles (SLEEP,
	// SLEEPSCAN, WS): no idle CPU burn, pays wake-up latency.
	waitBlock
)

// cacheLine is the coherence granularity the hot cross-worker state is
// padded to. 64 bytes covers x86-64 and current arm64 server cores.
const cacheLine = 64

// padUint64 is an atomic.Uint64 alone on its cache line: the leading pad
// separates it from whatever field precedes it in the enclosing struct,
// the trailing pad from whatever follows.
type padUint64 struct {
	_ [cacheLine]byte
	v atomic.Uint64
	_ [cacheLine - 8]byte
}

// padInt32 is an atomic.Int32 alone on its cache line.
type padInt32 struct {
	_ [cacheLine]byte
	v atomic.Int32
	_ [cacheLine - 4]byte
}

// depCount is one node's pending-dependency counter, striped to a full
// cache line: different workers decrement different nodes' counters
// concurrently on every cycle, and a worker publishing into node i's
// counter must not invalidate the line a neighbor spins on for node i±1.
type depCount struct {
	v atomic.Int32
	_ [cacheLine - 4]byte
}

// core is the one executor skeleton behind every private-worker
// strategy (the sequential baseline is the pool's width-1 walk): persistent
// OS-thread-pinned workers, the generation/epoch dispatch that starts a
// cycle, completion signaling, the per-node pending counters, the
// observer hook, and the whole lifecycle (Close, execute-after-close,
// StageSwap, AdoptStaged; see swap.go). All of it is allocation-free in
// steady state, per the package contract.
type core struct {
	// faults provides panic recovery, quarantine and load shedding for
	// every node execution.
	faults *FaultState

	plan    *graph.Plan
	threads int
	// obs is the construction-time observer (nil = none); fixed for the
	// scheduler's lifetime, so workers read it without synchronization.
	obs  Observer
	pol  policy
	mode waitMode

	// pending[i] counts node i's unfinished dependencies this cycle;
	// policies reload it with resetPending. One cache line per node.
	pending []depCount

	// generation is the cycle counter; waitSpin workers spin on it.
	// Padded: every worker reads it in its spin loop while worker 0
	// writes finished-adjacent state, so it must not share a line with
	// finished or the channels below.
	generation padUint64
	// finished counts workers that completed the cycle (waitSpin); all
	// workers write it at the cycle tail while worker 0 spins reading
	// it. Padded for the same reason as generation.
	finished padInt32
	// start and doneCh dispatch and collect cycles (waitBlock).
	start  []chan struct{}
	doneCh chan struct{}

	// staged holds a pending topology swap (see swap.go); published by
	// StageSwap from any goroutine, built and installed by AdoptStaged
	// between cycles on the Execute thread.
	staged atomic.Pointer[Swap]

	closed atomic.Bool
}

// newCore builds the shared runtime for a policy and starts threads-1
// persistent workers; the Execute caller acts as worker 0. The caller
// must have validated the plan/thread combination already.
func newCore(p *graph.Plan, threads int, obs Observer, pol policy, mode waitMode) *core {
	c := &core{
		faults:  newFaultState(p, threads),
		plan:    p,
		threads: threads,
		obs:     obs,
		pol:     pol,
		mode:    mode,
		pending: make([]depCount, p.Len()),
	}
	if mode == waitBlock {
		c.start = make([]chan struct{}, threads)
		c.doneCh = make(chan struct{}, threads)
		for w := 0; w < threads; w++ {
			c.start[w] = make(chan struct{}, 1)
		}
	}
	for w := 1; w < threads; w++ {
		go c.worker(int32(w))
	}
	return c
}

// resetPending reloads every pending counter from the plan's indegrees.
// The list and work-stealing policies call it from beginCycle, before
// any worker is released.
func (c *core) resetPending() {
	for i := range c.pending {
		c.pending[i].v.Store(c.plan.Indegree[i])
	}
}

// run executes node id on worker w with full fault handling (see
// FaultState.exec) from start stamp start, returning its end stamp;
// every policy's runCycle goes through it.
func (c *core) run(id, w int32, gen uint64, start int64) int64 {
	return c.faults.exec(c.plan, c.obs, id, w, gen, start)
}

// stamp is a fresh start stamp, taken after a wait (see stamp).
func (c *core) stamp() int64 { return stamp(c.obs) }

// worker is the persistent loop for workers 1..threads-1.
func (c *core) worker(w int32) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	switch c.mode {
	case waitSpin:
		lastGen := uint64(0)
		for {
			// Spin until the next cycle begins (or shutdown).
			var gen uint64
			spinWait(func() bool {
				if c.closed.Load() {
					return true
				}
				gen = c.generation.v.Load()
				return gen != lastGen
			})
			if c.closed.Load() {
				return
			}
			lastGen = gen
			c.pol.runCycle(c, w, gen)
			c.finished.v.Add(1)
		}
	case waitBlock:
		for range c.start[w] {
			if c.closed.Load() {
				return
			}
			c.pol.runCycle(c, w, c.generation.v.Load())
			c.doneCh <- struct{}{}
		}
	}
}

// Name implements Scheduler.
func (c *core) Name() string { return c.pol.name() }

// Threads implements Scheduler.
func (c *core) Threads() int { return c.threads }

// FaultState implements Scheduler.
func (c *core) FaultState() *FaultState { return c.faults }

// Execute implements Scheduler. The caller participates as worker 0.
// Execute panics if the scheduler has been closed.
func (c *core) Execute() {
	if c.closed.Load() {
		panic("sched: Execute called after Close")
	}
	if c.staged.Load() != nil {
		c.AdoptStaged()
	}
	if c.obs != nil {
		c.obs.BeginCycle()
	}
	c.pol.beginCycle(c)
	switch c.mode {
	case waitSpin:
		c.finished.v.Store(0)
		gen := c.generation.v.Add(1) // releases the spinning workers
		c.pol.runCycle(c, 0, gen)
		want := int32(c.threads - 1)
		spinWait(func() bool { return c.finished.v.Load() == want })
	case waitBlock:
		gen := c.generation.v.Add(1)
		for w := 1; w < c.threads; w++ {
			c.start[w] <- struct{}{}
		}
		c.pol.runCycle(c, 0, gen)
		for w := 1; w < c.threads; w++ {
			<-c.doneCh
		}
	}
	if c.obs != nil {
		c.obs.EndCycle()
	}
}

// Close implements Scheduler. It is idempotent; the worker goroutines
// exit and the scheduler must not be used afterwards.
func (c *core) Close() {
	if !c.closed.CompareAndSwap(false, true) {
		return
	}
	if c.mode == waitBlock {
		for w := 1; w < c.threads; w++ {
			close(c.start[w])
		}
	}
}
