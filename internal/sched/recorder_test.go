package sched

import (
	"fmt"

	"djstar/internal/graph"
)

// window is one node's execution in the last cycle a recorder saw.
// Start and End are nanoseconds relative to the cycle start; Worker is
// -1 for a node that did not run.
type window struct {
	Worker     int32
	Start, End int64
}

// recorder is the tests' Observer: it keeps one cycle's schedule
// realization, indexed by node ID, so a test can check every node ran
// once, on a worker in range, after its predecessors. Production code
// observes through obs.Collector.
type recorder struct {
	events []window
	base   int64
}

func newRecorder(n int) *recorder { return &recorder{events: make([]window, n)} }

func (r *recorder) BeginCycle() {
	r.base = graph.NowNanos()
	for i := range r.events {
		r.events[i] = window{Worker: -1}
	}
}

func (r *recorder) Record(node, worker int32, start, end int64) {
	r.events[node] = window{Worker: worker, Start: start - r.base, End: end - r.base}
}

func (r *recorder) EndCycle() {}

// Events returns the last cycle's windows indexed by node ID.
func (r *recorder) Events() []window { return r.events }

// Makespan returns the latest End across the nodes that ran.
func (r *recorder) Makespan() int64 {
	var m int64
	for _, e := range r.events {
		if e.Worker >= 0 && e.End > m {
			m = e.End
		}
	}
	return m
}

// edgeOrdered checks that the windows of edge u->v show its
// happens-before on one monotonic clock. A window is the node's dispatch
// plus its kernel (Observer.Record), so on one worker v's window opens
// no earlier than u's closed; across workers v's dispatch may begin
// before u's completion is published, but v's kernel cannot finish
// before u's did, so v's window closes after u's.
func edgeOrdered(ev []window, u, v int32) error {
	if ev[v].End < ev[u].End {
		return fmt.Errorf("edge %d->%d violated: successor ended %d before predecessor ended %d", u, v, ev[v].End, ev[u].End)
	}
	if ev[v].Worker == ev[u].Worker && ev[v].Start < ev[u].End {
		return fmt.Errorf("edge %d->%d violated on worker %d: successor started %d before predecessor ended %d",
			u, v, ev[v].Worker, ev[v].Start, ev[u].End)
	}
	return nil
}
