package sched

import (
	"sync/atomic"

	"djstar/internal/graph"
)

// sleepPlan is SLEEP's per-plan state: the round-robin node lists and
// the per-node executor registrations (a registration names a node of
// its own epoch, so a new plan starts with zeroed ones).
type sleepPlan struct {
	// lists[w] holds worker w's assigned node IDs in queue order.
	lists [][]int32
	// executor[i] holds 1+worker of the thread sleeping on node i (0 =
	// nobody registered).
	executor []atomic.Int32
}

func newSleepPlan(p *graph.Plan, threads int) sleepPlan {
	return sleepPlan{
		lists:    p.RoundRobinLists(threads),
		executor: make([]atomic.Int32, p.Len()),
	}
}

// sleepPolicy is the thread-sleeping strategy (paper §V-B): the node
// queue is split round-robin exactly like BUSY, but a thread whose next
// node still has open dependencies registers itself as that node's
// executor and goes to sleep; the predecessor that resolves the last
// dependency wakes it. This saves the CPU cycles BUSY burns spinning, at
// the price of wake-up latency — visible in the paper's histograms as the
// complete absence of sub-0.4 ms graph executions for SLEEP.
//
// The core owns the workers and the pending counters; the policy owns
// the per-node executor registrations and wake channels.
type sleepPolicy struct {
	sleepPlan

	// wake[w] delivers wake-up tokens to worker w. Capacity 1: at most
	// one wake can be outstanding, and spurious tokens (from a
	// registration that resolved itself) are absorbed by re-checking the
	// pending counter in a loop.
	wake []chan struct{}
}

func newSleepPolicy(sp sleepPlan, threads int) *sleepPolicy {
	pol := &sleepPolicy{sleepPlan: sp, wake: make([]chan struct{}, threads)}
	for w := 0; w < threads; w++ {
		pol.wake[w] = make(chan struct{}, 1)
	}
	return pol
}

func (pol *sleepPolicy) stage(p *graph.Plan, threads int) func() {
	sp := newSleepPlan(p, threads)
	return func() { pol.sleepPlan = sp }
}

func (pol *sleepPolicy) name() string { return NameSleep }

// beginCycle resets the dependency counters before workers are released.
func (pol *sleepPolicy) beginCycle(c *core) { c.resetPending() }

// runCycle executes worker w's nodes, sleeping on open dependencies.
func (pol *sleepPolicy) runCycle(c *core, w int32, gen uint64) {
	t := c.stamp()
	for _, id := range pol.lists[w] {
		// Register-then-recheck avoids the lost-wakeup race: either the
		// final predecessor sees our registration and sends a token, or
		// our recheck observes pending == 0 and we never sleep. Spurious
		// tokens from earlier self-resolved registrations are absorbed by
		// looping. A node that had to wait takes a fresh start stamp.
		if c.pending[id].v.Load() > 0 {
			for c.pending[id].v.Load() > 0 {
				pol.executor[id].Store(w + 1)
				if c.pending[id].v.Load() > 0 {
					<-pol.wake[w]
				}
			}
			t = c.stamp()
		}
		if t = c.run(id, w, gen, t); pol.release(c, id) {
			t = c.stamp() // a wake-up is a wait: the next window starts after it
		}
	}
}

// release resolves node id's successors and wakes the executor of any
// that became ready; it reports whether it sent a wake-up.
func (pol *sleepPolicy) release(c *core, id int32) (woke bool) {
	for _, succ := range c.plan.SuccsOf(id) {
		if c.pending[succ].v.Add(-1) == 0 {
			if e := pol.executor[succ].Load(); e != 0 {
				select {
				case pol.wake[e-1] <- struct{}{}:
					woke = true
				default:
				}
			}
		}
	}
	return woke
}
