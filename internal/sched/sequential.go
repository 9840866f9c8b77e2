package sched

import "djstar/internal/graph"

// seqPolicy is the sequential baseline: the node queue drained in order
// by one thread — DJ Star's original implementation ("single nodes can
// simply be removed from the queue in the same order (FIFO) during graph
// execution and processed sequentially", paper §IV) and the reference for
// all speedup numbers. It is the skeleton's one-thread case: core starts
// no workers, the Execute caller walks plan.Order, and since that order
// is topological there is no dependency to check, nor wait to stamp.
type seqPolicy struct{}

func (seqPolicy) name() string { return NameSequential }

func (seqPolicy) beginCycle(*core) {}

func (seqPolicy) runCycle(c *core, w int32, gen uint64) {
	t := c.stamp()
	for _, id := range c.plan.Order {
		t = c.run(id, w, gen, t)
	}
}

// stage: the queue order lives in the plan itself.
func (seqPolicy) stage(*graph.Plan, int) func() { return func() {} }
