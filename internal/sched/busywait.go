package sched

import "djstar/internal/graph"

// listSpinPolicy is the paper's winning strategy (§V-A): nodes from the
// depth-sorted queue are assigned to threads round-robin; each thread
// processes its nodes in queue order and spins ("busy-waits") until every
// dependency of the next node is done, via the core's generation-stamped
// done flags. Run under waitSpin, workers spin across cycle boundaries
// too, so starting a cycle costs no wake-up — the property that gives
// BUSY its strong early-start behaviour (Fig. 9/10).
//
// It backs both NameBusyWait (graph.Plan.RoundRobinLists) and NameStatic
// (externally supplied lists, see NewStatic); the two differ only in how
// the lists are produced.
type listSpinPolicy struct {
	strategy string
	// lists[w] holds worker w's assigned node IDs in queue order.
	lists [][]int32
}

func (pol *listSpinPolicy) name() string { return pol.strategy }

// stage re-deals the new plan's rank order round-robin. For STATIC this
// means an offline schedule does not survive a topology edit — the old
// assignment names nodes that no longer exist — so the strategy degrades
// to BusyWait's dealing until a new schedule is installed via a
// subsequent swap.
func (pol *listSpinPolicy) stage(p *graph.Plan, threads int) func() {
	lists := p.RoundRobinLists(threads)
	return func() { pol.lists = lists }
}

// beginCycle: the generation stamp makes the previous cycle's done flags
// stale automatically, so there is nothing to reset.
func (pol *listSpinPolicy) beginCycle(*core) {}

// runCycle executes worker w's node list for the given generation,
// spinning on unfinished dependencies, and stamping afresh after a spin.
func (pol *listSpinPolicy) runCycle(c *core, w int32, gen uint64) {
	t := c.stamp()
	for _, id := range pol.lists[w] {
		// Dependency check with busy-waiting (paper Fig. 5).
		for _, d := range c.plan.PredsOf(id) {
			if c.done[d].v.Load() != gen {
				spinWait(func() bool { return c.done[d].v.Load() == gen })
				t = c.stamp()
			}
		}
		t = c.run(id, w, gen, t)
		c.done[id].v.Store(gen)
	}
}
