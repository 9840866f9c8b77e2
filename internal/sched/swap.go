package sched

import (
	"fmt"

	"djstar/internal/graph"
)

// Topology swaps (live graph editing).
//
// A Scheduler's plan is not fixed for its lifetime: StageSwap records a
// new compiled plan, and AdoptStaged adopts it between two cycles. Every
// strategy and sched.Pool supports it: the worker pool, its OS-thread
// pinning, the fault counters and the quarantine/shed bits all survive
// the swap; only the per-plan structures (node lists, dependency
// counters, deques, claim state) are rebuilt.
//
// Protocol: StageSwap may be called from any goroutine at any time. It
// validates the Swap and publishes a pointer to it; a second call
// replaces an unadopted stage. AdoptStaged must be called from the
// Execute thread with no cycle in flight, the same serialization every
// Scheduler already demands of Execute itself. It builds the new epoch
// there, with the builders the constructors use, and installs it.
// Execute also adopts any staged swap at its top, so a standalone
// scheduler picks up swaps without extra plumbing. The engine calls the
// two back to back at a cycle boundary, so that it can run its
// state-migration hooks at a known point: a swap is one step of the
// boundary.

// Swap describes a staged topology change.
type Swap struct {
	// Plan is the new compiled plan to adopt. Required.
	Plan *graph.Plan
	// OldToNew maps the current plan's BASE node IDs to the new plan's
	// (-1 = node removed); quarantine/shed/fault state follows it. A nil
	// map means the base topology is unchanged (e.g. a re-fusion of the
	// same graph) and per-node state is carried by identity.
	OldToNew []int32
	// Observer, when non-nil, replaces the scheduler's observer at
	// adoption (a new topology usually means a new collector sized for
	// it). Nil keeps the current observer.
	Observer Observer
}

func (sw Swap) validate(threads int) error {
	if sw.Plan == nil || sw.Plan.Len() == 0 {
		return fmt.Errorf("sched: swap with empty plan")
	}
	if threads > sw.Plan.Len() {
		return fmt.Errorf("sched: %d workers exceed new plan's %d nodes",
			threads, sw.Plan.Len())
	}
	return nil
}

// StageSwap implements Scheduler for all core-based strategies.
func (c *core) StageSwap(sw Swap) error {
	if c.closed.Load() {
		return fmt.Errorf("sched: StageSwap after Close")
	}
	if err := sw.validate(c.threads); err != nil {
		return err
	}
	c.staged.Store(&sw)
	return nil
}

// AdoptStaged implements Scheduler for all core-based strategies: it
// builds and installs the most recently staged swap's epoch, if any, and
// reports whether one was adopted. Must be called from the Execute
// thread between cycles; workers are parked or spinning on the
// generation counter then, and the atomic cycle dispatch publishes every
// plain write made here.
func (c *core) AdoptStaged() bool {
	sw := c.staged.Swap(nil)
	if sw == nil || c.closed.Load() {
		return false
	}
	c.faults.adopt(sw.Plan, sw.OldToNew)
	c.plan = sw.Plan
	if sw.Observer != nil {
		c.obs = sw.Observer
	}
	// No worker touches a counter between cycles, and resetPending
	// reloads each one at the next cycle's top, so the array is reused.
	if n := sw.Plan.Len(); cap(c.pending) >= n {
		c.pending = c.pending[:n]
	} else {
		c.pending = make([]depCount, n)
	}
	c.pol.setPlan(sw.Plan, c.threads)
	return true
}
