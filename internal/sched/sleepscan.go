package sched

import (
	"djstar/internal/graph"
)

// NameSleepScan is the strategy identifier for the improved sleeper.
const NameSleepScan = "sleepscan"

// sleepScanPolicy is the improved sleeping strategy the paper sketches
// but does not build (§V-B): "Instead of putting the executor thread to
// sleep because its node is currently blocked, it could look for other
// available nodes and compute them." A worker whose next node has open
// dependencies first scans the rest of its own list for any ready node
// and runs that instead; it sleeps only when nothing on its list is
// runnable. The paper predicts this trades earlier start times for more
// queue-management overhead — the scan — which is exactly what the
// ablation harness measures against plain SLEEP and WS.
//
// It extends sleepPolicy, reusing its lists, executor registrations and
// wake channels, and overrides only the per-cycle loop.
type sleepScanPolicy struct {
	*sleepPolicy

	// ran tracks per-worker which of its own list entries already ran
	// this cycle (only the owning worker touches its row).
	ran [][]bool
}

func newSleepScanPolicy(p *graph.Plan, threads int) *sleepScanPolicy {
	sp, ran := newSleepScanPlan(p, threads)
	return &sleepScanPolicy{sleepPolicy: newSleepPolicy(sp, threads), ran: ran}
}

// newSleepScanPlan is SLEEPSCAN's per-plan state: SLEEP's, plus ran rows
// matching the list lengths.
func newSleepScanPlan(p *graph.Plan, threads int) (sleepPlan, [][]bool) {
	sp := newSleepPlan(p, threads)
	ran := make([][]bool, threads)
	for w := range ran {
		ran[w] = make([]bool, len(sp.lists[w]))
	}
	return sp, ran
}

func (pol *sleepScanPolicy) name() string { return NameSleepScan }

func (pol *sleepScanPolicy) stage(p *graph.Plan, threads int) func() {
	sp, ran := newSleepScanPlan(p, threads)
	return func() { pol.sleepPlan, pol.ran = sp, ran }
}

// runCycle executes worker w's list, preferring the earliest queued node
// but running any later ready node rather than sleeping.
func (pol *sleepScanPolicy) runCycle(c *core, w int32, gen uint64) {
	list := pol.lists[w]
	ran := pol.ran[w]
	for i := range ran {
		ran[i] = false
	}
	remaining := len(list)
	t := c.stamp()
	for remaining > 0 {
		progressed := false
		first := -1 // earliest not-yet-run entry, the sleep anchor
		for i, id := range list {
			if ran[i] {
				continue
			}
			if first == -1 {
				first = i
			}
			if c.pending[id].v.Load() == 0 {
				if t = c.run(id, w, gen, t); pol.release(c, id) {
					t = c.stamp() // a wake-up is a wait
				}
				ran[i] = true
				remaining--
				progressed = true
				// Restart the scan: completing a node may have readied
				// an earlier list entry on this worker.
				break
			}
		}
		if progressed || remaining == 0 {
			continue
		}
		// Nothing runnable: sleep on the earliest blocked node, exactly
		// like plain Sleep (register-then-recheck closes the race).
		anchor := list[first]
		for c.pending[anchor].v.Load() > 0 {
			pol.executor[anchor].Store(w + 1)
			if c.pending[anchor].v.Load() > 0 {
				<-pol.wake[w]
			}
		}
		t = c.stamp()
	}
}
