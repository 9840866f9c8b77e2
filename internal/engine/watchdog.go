package engine

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"djstar/internal/sched"
)

// StallRecord describes one detected graph-execution stall.
type StallRecord struct {
	// Cycle is the engine cycle (1-based) that stalled.
	Cycle uint64
	// Node and Name identify the first in-flight node at detection time —
	// the prime suspect for the wedge. Node is -1 when no worker reported
	// an in-flight node (the stall is in the scheduler itself).
	Node int32
	Name string
	// Worker is the worker running Node.
	Worker int32
	// Inflight lists every (worker, node) pair in flight at detection,
	// formatted "w0:FXA2 w3:Mixer" — the full diagnostic.
	Inflight string
	// ElapsedMS is how long the graph execution had been running.
	ElapsedMS float64
}

// watchdog detects cycles stuck inside graph execution. The cycle thread
// arms it around sched.Execute; the engine's monitor goroutine calls
// check with the current time and, when an execution exceeds the hard
// wall, records a StallRecord naming the in-flight node(s) and notifies
// the handler — turning a silent hang into an actionable diagnostic.
// Detection is level-triggered once per cycle.
type watchdog struct {
	// faults is the watched session's fault state: its inflight view and
	// the plan naming the nodes in it. The same object serves every
	// executor the session ever runs on, so there is nothing to re-point
	// after a plan swap or a migration.
	faults *sched.FaultState
	wall   time.Duration

	// armed is 1 + the graph.NowNanos stamp of the armed graph execution's
	// start (0 = not armed; the +1 keeps a stamp of 0 armed). The process's
	// monotonic clock, not the wall clock: an NTP or VM clock step must
	// neither fake a stall nor hide one.
	armed atomic.Int64
	// gen is the engine cycle being executed.
	gen atomic.Uint64
	// firedGen is the last cycle a stall was reported for (check's
	// caller only).
	firedGen uint64

	// stalls counts reported stalls; last is the most recent (Health).
	stalls atomic.Int64
	last   atomic.Pointer[StallRecord]

	// onStall, when set, is invoked from check's caller.
	onStall func(StallRecord)
}

func newWatchdog(fs *sched.FaultState, wall time.Duration, onStall func(StallRecord)) *watchdog {
	return &watchdog{faults: fs, wall: wall, onStall: onStall}
}

// arm marks the start of a graph execution (cycle thread); now is the
// cycle's own graph.NowNanos stamp for that instant, so an enabled
// watchdog adds no clock read to the cycle.
func (w *watchdog) arm(cycle uint64, now int64) {
	w.gen.Store(cycle)
	w.armed.Store(now + 1)
}

// disarm marks the end of the graph execution (cycle thread).
func (w *watchdog) disarm() { w.armed.Store(0) }

// check reports the armed execution as stalled when it has run for at
// least the wall at now (a graph.NowNanos stamp) — once per cycle. One
// goroutine at a time calls it: the engine's monitor, or a test.
func (w *watchdog) check(now int64) {
	armed := w.armed.Load()
	if armed == 0 {
		return
	}
	elapsed := time.Duration(now - (armed - 1))
	gen := w.gen.Load()
	if elapsed < w.wall || w.firedGen == gen {
		return
	}
	w.firedGen = gen
	rec := w.diagnose(gen, elapsed)
	w.stalls.Add(1)
	w.last.Store(&rec)
	if w.onStall != nil {
		w.onStall(rec)
	}
}

// diagnose assembles the stall record from the in-flight worker state.
// One Plan load names every node of the pass; an edit adopted mid-poll
// at worst labels a node "?" once (Inflight is bounds-guarded).
func (w *watchdog) diagnose(gen uint64, elapsed time.Duration) StallRecord {
	rec := StallRecord{
		Cycle:     gen,
		Node:      -1,
		Worker:    -1,
		ElapsedMS: float64(elapsed) / 1e6,
	}
	var b strings.Builder
	names := w.faults.Plan().Names
	for wk := int32(0); wk < int32(w.faults.Workers()); wk++ {
		in := w.faults.Inflight(wk)
		if in == 0 {
			continue
		}
		node := in - 1
		name := "?"
		if int(node) < len(names) {
			name = names[node]
		}
		if rec.Node < 0 {
			rec.Node = node
			rec.Name = name
			rec.Worker = wk
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "w%d:%s", wk, name)
	}
	rec.Inflight = b.String()
	return rec
}
