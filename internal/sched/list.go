package sched

import (
	"sync/atomic"

	"djstar/internal/graph"
)

// NameSleepScan is the strategy identifier for the improved sleeper.
const NameSleepScan = "sleepscan"

// listWait is how a list worker waits when its next entry is not ready.
type listWait int

const (
	// spinOnEntry spins on the entry's pending counter (BUSY, STATIC;
	// paper §V-A, Fig. 5): no wake-up cost, a core burnt per waiter.
	spinOnEntry listWait = iota
	// parkOnEntry registers the worker as the entry's executor and parks
	// it; the release that readies the entry wakes it (SLEEP, §V-B). No
	// CPU burnt, a wake-up paid — the paper's missing sub-0.4 ms graph
	// executions for SLEEP.
	parkOnEntry
	// scanThenPark first runs the earliest ready later entry of the
	// worker's own list, and parks only when none is ready: the improved
	// sleeper §V-B sketches but does not build ("it could look for other
	// available nodes and compute them"), trading earlier starts for the
	// scan.
	scanThenPark
)

// listPresets maps each list strategy to its wait. The waits that park
// also block between cycles; the spinners spin across cycle boundaries
// too, so starting a cycle costs them no wake-up (Fig. 9/10).
var listPresets = map[string]listWait{
	NameBusyWait:  spinOnEntry,
	NameStatic:    spinOnEntry,
	NameSleep:     parkOnEntry,
	NameSleepScan: scanThenPark,
}

// listPolicy is the static list executor behind busy, static, sleep and
// sleepscan: worker w runs lists[w] in order — graph.Plan.RoundRobinLists
// for all four through New, an offline schedule through NewStatic — and
// an entry is ready when its pending counter reaches 0. release
// decrements the successors' counters and wakes a worker registered on
// one it readied. The presets differ only in the wait (listWait).
type listPolicy struct {
	strategy string
	wait     listWait
	listPlan

	// wake[w] delivers wake-up tokens to worker w. Capacity 1: at most
	// one wake can be outstanding, and spurious tokens (from a
	// registration that resolved itself) are absorbed by re-checking the
	// pending counter in a loop.
	wake []chan struct{}
}

// listPlan is the per-plan state: the lists, the per-node executor
// registrations (a registration names a node of its own epoch, so a new
// plan starts with zeroed ones) and the scan's copies of the lists.
type listPlan struct {
	// lists[w] holds worker w's assigned node IDs in queue order.
	lists [][]int32
	// executor[i] holds 1+worker of the thread parked on node i (0 =
	// nobody registered).
	executor []atomic.Int32
	// todo[w] is worker w's copy of lists[w] for the scan to reorder.
	todo [][]int32
}

func newListPlan(p *graph.Plan, lists [][]int32) listPlan {
	todo := make([][]int32, len(lists))
	for w, l := range lists {
		todo[w] = make([]int32, 0, len(l))
	}
	return listPlan{lists: lists, executor: make([]atomic.Int32, p.Len()), todo: todo}
}

// newListPolicy builds strategy's list executor over the given lists and
// returns it with its between-cycle discipline.
func newListPolicy(strategy string, p *graph.Plan, lists [][]int32) (*listPolicy, waitMode) {
	wait := listPresets[strategy]
	pol := &listPolicy{strategy: strategy, wait: wait, listPlan: newListPlan(p, lists),
		wake: make([]chan struct{}, len(lists))}
	for w := range pol.wake {
		pol.wake[w] = make(chan struct{}, 1)
	}
	if wait == spinOnEntry {
		return pol, waitSpin
	}
	return pol, waitBlock
}

func (pol *listPolicy) name() string { return pol.strategy }

// setPlan re-deals the new plan's rank order round-robin. For STATIC this
// means an offline schedule does not survive a topology edit — the old
// assignment names nodes that no longer exist — so the strategy degrades
// to BUSY's dealing until a new schedule is installed via a subsequent
// swap.
func (pol *listPolicy) setPlan(p *graph.Plan, threads int) {
	pol.listPlan = newListPlan(p, p.RoundRobinLists(threads))
}

// beginCycle reloads the dependency counters before workers are released.
func (pol *listPolicy) beginCycle(c *core) { c.resetPending() }

// runCycle runs worker w's list in order. When the head entry is not
// ready the scan runs a later ready entry first; otherwise the worker
// waits for the head and takes a fresh start stamp after the wait.
func (pol *listPolicy) runCycle(c *core, w int32, gen uint64) {
	todo := pol.lists[w]
	if pol.wait == scanThenPark {
		todo = append(pol.todo[w][:0], todo...) // the scan reorders its copy
	}
	t := c.stamp()
	for ; len(todo) > 0; todo = todo[1:] {
		if c.pending[todo[0]].v.Load() > 0 && !(pol.wait == scanThenPark && promoteReady(c, todo)) {
			pol.await(c, w, todo[0])
			t = c.stamp()
		}
		if t = c.run(todo[0], w, gen, t); pol.release(c, todo[0]) {
			t = c.stamp() // a wake-up is a wait: the next window starts after it
		}
	}
}

// promoteReady moves the earliest ready entry of todo[1:] to the front,
// keeping the others in order, and reports whether there was one. Each
// scan starts again from the head: completing a node may have readied
// an earlier entry.
func promoteReady(c *core, todo []int32) bool {
	for i := 1; i < len(todo); i++ {
		if id := todo[i]; c.pending[id].v.Load() == 0 {
			copy(todo[1:i+1], todo[:i])
			todo[0] = id
			return true
		}
	}
	return false
}

// await returns once node id is ready. The spinners spin (paper Fig. 5).
// The others register as id's executor and park: register-then-recheck
// avoids the lost wake-up — either the final predecessor sees the
// registration and sends a token, or the recheck sees pending == 0 and
// the worker never parks. Spurious tokens are absorbed by the loop.
func (pol *listPolicy) await(c *core, w, id int32) {
	if pol.wait == spinOnEntry {
		spinWait(func() bool { return c.pending[id].v.Load() == 0 })
		return
	}
	for c.pending[id].v.Load() > 0 {
		pol.executor[id].Store(w + 1)
		if c.pending[id].v.Load() > 0 {
			<-pol.wake[w]
		}
	}
}

// release resolves node id's successors and wakes the registered
// executor of any that became ready; it reports whether it sent a
// wake-up. A spinner is never registered, so it sends none.
func (pol *listPolicy) release(c *core, id int32) (woke bool) {
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
