package sched

import (
	"fmt"

	"djstar/internal/graph"
)

// Topology swaps (live graph editing).
//
// A Scheduler's plan is not fixed for its lifetime: StageSwap stages a
// new compiled plan, and AdoptStaged adopts it atomically between two
// cycles. This generalizes the engine's old private re-fusion swap —
// which rebuilt a whole scheduler — into a scheduler-level operation
// every strategy and sched.Pool supports: the worker pool, its OS-thread
// pinning, the fault counters and the quarantine/shed bits all survive
// the swap; only the per-plan structures (node lists, dependency
// counters, deques) are rebuilt.
//
// Protocol: StageSwap may be called from any goroutine at any time (it
// only publishes a pointer; a second call replaces an unadopted stage).
// AdoptStaged must be called from the Execute thread with no cycle in
// flight — the same serialization every Scheduler already demands of
// Execute itself. Execute also adopts any staged swap at its top, so a
// standalone scheduler picks up swaps without extra plumbing; the engine
// instead calls AdoptStaged explicitly so it can run state-migration
// hooks at a known point between cycles.
//
// Every allocation adoption needs — fresh pending counters, the fault
// arrays of the new epoch, and the policy's per-plan
// state (node lists, deques; see policy.stage) — is performed at STAGING
// time, on the staging goroutine, off the audio path, by the same
// builder the strategy's constructor calls. The adopting cycle boundary
// only installs the prebuilt structures and copies surviving per-node
// state, keeping the swap-boundary cycle close to steady-state cost.

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

// stagedSwap bundles a validated Swap with everything its adoption would
// otherwise allocate. It is built by StageSwap on the staging goroutine;
// the atomic staged-pointer publication makes every write here visible
// to the adopting thread.
type stagedSwap struct {
	sw Swap
	// install assigns the policy's prebuilt per-plan state (see
	// policy.stage).
	install func()
	// pending is a fresh per-node counter array for the new plan.
	pending []depCount
	// faults is a pre-sized fault-array set for the new plan; adoption
	// copies the surviving quarantine/shed/fault state into it through
	// the remap (see FaultState.adopt).
	faults *faultArrays
}

// StageSwap implements Scheduler for all core-based strategies.
func (c *core) StageSwap(sw Swap) error {
	if c.closed.Load() {
		return fmt.Errorf("sched: StageSwap after Close")
	}
	if err := sw.validate(c.threads); err != nil {
		return err
	}
	c.staged.Store(&stagedSwap{
		sw:      sw,
		install: c.pol.stage(sw.Plan, c.threads),
		pending: make([]depCount, sw.Plan.Len()),
		faults:  newFaultArrays(sw.Plan),
	})
	return nil
}

// AdoptStaged implements Scheduler for all core-based strategies: it
// adopts the most recently staged swap, if any, and reports whether one
// was adopted. Must be called from the Execute thread between cycles;
// workers are parked or spinning on the generation counter then, and the
// atomic cycle dispatch publishes every plain write made here.
func (c *core) AdoptStaged() bool {
	st := c.staged.Swap(nil)
	if st == nil || c.closed.Load() {
		return false
	}
	sw := st.sw
	c.faults.adopt(st.faults, sw.OldToNew)
	c.plan = sw.Plan
	if sw.Observer != nil {
		c.obs = sw.Observer
	}
	c.pending = st.pending
	st.install()
	return true
}
