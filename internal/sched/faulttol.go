package sched

import (
	"sync/atomic"

	"djstar/internal/graph"
)

// Fault tolerance.
//
// A DSP node that panics must not take the audio process down, and must
// not wedge the cycle: its successors still depend on its pending
// counter, so the recovery path has to retire the node normally.
// Every scheduler in this package therefore routes node execution through
// a shared FaultState: the node runs under recover; on panic its Flush
// hook silences the half-written output buffer, the fault is reported,
// and the node is retired so the cycle completes. After QuarantineAfter
// consecutive faults the node is quarantined — subsequent cycles run its
// Bypass stand-in (or skip it) instead of the faulty kernel — and every
// ProbeEvery cycles one guarded probe of the real kernel decides whether
// to lift the quarantine.
//
// The no-fault hot path costs one atomic state load, one inflight store
// and an open-coded defer per node; it allocates nothing, preserving the
// package's zero-allocation steady-state contract.

// FaultPolicy configures the quarantine behaviour of a scheduler.
// The zero value selects the defaults.
type FaultPolicy struct {
	// ProbeEvery is the cycle interval between guarded probes of a
	// quarantined node's real kernel (default 512).
	ProbeEvery uint64
}

const (
	// QuarantineAfter is the number of consecutive faults after which a
	// node is quarantined.
	QuarantineAfter = 3
	// DefaultProbeEvery is FaultPolicy.ProbeEvery's default.
	DefaultProbeEvery = 512
)

func (p FaultPolicy) withDefaults() FaultPolicy {
	if p.ProbeEvery == 0 {
		p.ProbeEvery = DefaultProbeEvery
	}
	return p
}

// FaultRecord describes one recovered node fault.
type FaultRecord struct {
	// Node and Name identify the faulted node.
	Node int32
	Name string
	// Worker is the worker that was running the node.
	Worker int32
	// Cycle is the scheduler's cycle generation at fault time.
	Cycle uint64
	// Err is the recovered panic value.
	Err any
	// Quarantined reports whether this fault tripped the quarantine
	// threshold.
	Quarantined bool
}

// FaultStats are a scheduler's cumulative fault-tolerance counters.
type FaultStats struct {
	// Recovered counts node panics contained by the scheduler.
	Recovered int64
	// Quarantined counts quarantine transitions.
	Quarantined int64
	// Probes counts guarded probe attempts on quarantined nodes.
	Probes int64
	// Restored counts successful probes (quarantines lifted).
	Restored int64
}

// Node state bits in faultArrays.state.
const (
	stateQuarantined uint32 = 1 << iota
	stateShed
)

// faultArrays is the per-node fault state of one plan epoch: all arrays
// are indexed by BASE node IDs. The whole set swaps atomically when a
// topology edit is adopted (see FaultState.adopt), so cross-thread
// readers — Health snapshots calling Quarantined, the governor calling
// SetNodeShed — always see arrays consistent with one plan.
type faultArrays struct {
	// plan is the base plan the arrays are indexed by.
	plan *graph.Plan
	// state[i] holds the quarantine/shed bits of node i.
	state []atomic.Uint32
	// consec[i] counts node i's consecutive faults (reset on success).
	consec []atomic.Int32
	// probeAt[i] is the cycle generation at which a quarantined node i is
	// next probed.
	probeAt []atomic.Uint64
}

// FaultState is one session's fault-tolerance state: quarantine and shed
// bits, fault counters, and the per-worker inflight view. It has the
// lifetime of the session, not of an executor: a Scheduler is built
// around one, hands the same pointer back from FaultState() for its
// whole life — across every AdoptStaged — and Pool.AttachMigrated passes
// it on to the session's next executor. Holders (the engine's governor,
// watchdog and health read-outs) therefore fetch it once and never
// re-point.
type FaultState struct {
	policy FaultPolicy
	// handler is invoked synchronously from the recovering worker; it
	// must be installed before the first Execute or between cycles, and
	// must be safe to call from any worker thread.
	handler func(FaultRecord)

	// arr holds the per-node arrays of the current plan epoch. Readers
	// load it once per operation and index only within its bounds, so a
	// concurrent adopt (which replaces the whole set) is safe.
	arr atomic.Pointer[faultArrays]

	// running[w] holds 1 + the node worker w is currently executing
	// (0 = idle); the engine's stall watchdog reads it to name the stuck
	// node. Sized once, for the session's first executor: a topology swap
	// keeps the worker count, and a migration may only narrow it (see
	// Pool.AttachMigrated).
	running []atomic.Int32

	recovered   atomic.Int64
	quarantines atomic.Int64
	probes      atomic.Int64
	restored    atomic.Int64
}

// newFaultArrays sizes per-node fault arrays for a plan. Fault state is
// always indexed by BASE node IDs: on a fused plan (graph.Fuse) each
// member of a fused unit is guarded, counted and quarantined
// individually, so the arrays are sized by BaseLen.
func newFaultArrays(p *graph.Plan) *faultArrays {
	base := p
	if p.Base != nil {
		base = p.Base
	}
	n := p.BaseLen()
	return &faultArrays{
		plan:    base,
		state:   make([]atomic.Uint32, n),
		consec:  make([]atomic.Int32, n),
		probeAt: make([]atomic.Uint64, n),
	}
}

// newFaultState sizes the fault-tolerance state for a plan and worker
// count.
func newFaultState(p *graph.Plan, workers int) *FaultState {
	f := &FaultState{
		policy:  FaultPolicy{}.withDefaults(),
		running: make([]atomic.Int32, workers),
	}
	f.arr.Store(newFaultArrays(p))
	return f
}

// adopt rebinds the fault arrays to a new plan epoch, carrying each
// surviving node's quarantine bit, shed bit, consecutive-fault count and
// probe deadline through the remap — a node quarantined before the edit
// stays quarantined after it, under its new ID. oldToNew == nil means
// the base topology is unchanged (a re-fusion): when the base plan is
// literally the same, the arrays are kept; otherwise state is copied by
// identity index into fresh arrays sized for p. Runs between cycles on
// the adoption thread.
func (f *FaultState) adopt(p *graph.Plan, oldToNew []int32) {
	old := f.arr.Load()
	if oldToNew == nil && (p == old.plan || p.Base == old.plan) {
		return
	}
	next := newFaultArrays(p)
	n := len(next.state)
	if oldToNew == nil {
		m := min(n, len(old.state))
		for i := 0; i < m; i++ {
			next.state[i].Store(old.state[i].Load())
			next.consec[i].Store(old.consec[i].Load())
			next.probeAt[i].Store(old.probeAt[i].Load())
		}
	} else {
		for oldID, newID := range oldToNew {
			if newID < 0 || int(newID) >= n || oldID >= len(old.state) {
				continue
			}
			next.state[newID].Store(old.state[oldID].Load())
			next.consec[newID].Store(old.consec[oldID].Load())
			next.probeAt[newID].Store(old.probeAt[oldID].Load())
		}
	}
	f.arr.Store(next)
}

// SetFaultPolicy configures the quarantine thresholds. Zero fields
// select defaults; call it before the first Execute or between cycles.
func (f *FaultState) SetFaultPolicy(p FaultPolicy) { f.policy = p.withDefaults() }

// SetFaultHandler installs h, invoked synchronously from the worker
// that recovered a fault, so it must be cheap and safe for
// concurrent use. Install it before the first Execute or between cycles.
func (f *FaultState) SetFaultHandler(h func(FaultRecord)) { f.handler = h }

// Faults returns the cumulative fault-tolerance counters.
func (f *FaultState) Faults() FaultStats {
	return FaultStats{
		Recovered:   f.recovered.Load(),
		Quarantined: f.quarantines.Load(),
		Probes:      f.probes.Load(),
		Restored:    f.restored.Load(),
	}
}

// SetNodeShed marks (or unmarks) a node as shed: a shed node runs its Bypass stand-in
// (or is skipped) instead of its kernel until un-shed. The engine's
// deadline governor drives this; it takes effect on the next cycle.
// IDs outside the current plan epoch (a caller racing a topology swap)
// are ignored.
func (f *FaultState) SetNodeShed(id int32, shed bool) {
	a := f.arr.Load()
	if id < 0 || int(id) >= len(a.state) {
		return
	}
	if shed {
		a.updateBits(id, stateShed, 0)
	} else {
		a.updateBits(id, 0, stateShed)
	}
}

// bits returns node id's state bits; IDs outside the current plan epoch
// (a caller racing a topology swap) read as 0.
func (f *FaultState) bits(id int32) uint32 {
	a := f.arr.Load()
	if id < 0 || int(id) >= len(a.state) {
		return 0
	}
	return a.state[id].Load()
}

// Quarantined reports whether a node is currently quarantined.
func (f *FaultState) Quarantined(id int32) bool { return f.bits(id)&stateQuarantined != 0 }

// Shed reports whether a node is currently marked shed.
func (f *FaultState) Shed(id int32) bool { return f.bits(id)&stateShed != 0 }

// Inflight returns 1 + the node worker w is currently executing, or 0
// when the worker is idle (the stall watchdog's view).
func (f *FaultState) Inflight(w int32) int32 {
	if int(w) >= len(f.running) {
		return 0
	}
	return f.running[w].Load()
}

// Workers returns the width of the inflight view: the worker count of
// the session's first executor, an upper bound on every later one.
func (f *FaultState) Workers() int { return len(f.running) }

// Plan returns the base plan of the current epoch — the node-ID space of
// SetNodeShed, Quarantined and Inflight. It changes only at AdoptStaged.
func (f *FaultState) Plan() *graph.Plan { return f.arr.Load().plan }

// exec runs node id of plan p on worker w for cycle gen with full fault
// handling. It always returns normally — on a node panic the fault is
// recorded and contained — so callers retire the node and release its
// successors exactly as on success.
//
// On a fused plan, id names a fused unit: its members run back-to-back
// under their BASE plan and base IDs, so per-member observation, shed
// bits, quarantine and inflight reporting are identical to the unfused
// plan. A panicking member is contained without aborting the rest of the
// unit — later members see the same flushed-output state they would see
// in an unfused run.
//
// start is the worker's start stamp for the node (Observer.Record); exec
// returns its end stamp. A fused member starts at its predecessor's end,
// and a contained panic is followed by a fresh stamp.
func (f *FaultState) exec(p *graph.Plan, o Observer, id, w int32, gen uint64, start int64) int64 {
	if p.Members != nil {
		base := p.Base
		for _, m := range p.Members[id] {
			start = f.execNode(base, o, m, w, gen, start)
		}
		return start
	}
	return f.execNode(p, o, id, w, gen, start)
}

// execNode is exec for a single unfused node. The fault arrays are
// loaded once per call: a topology swap never happens while a cycle is
// in flight, so the arrays match the plan the caller is executing. A
// quarantined node due for a probe gets one guarded attempt at the real
// kernel, which decides whether the quarantine lifts; otherwise a
// quarantined or shed node runs its stand-in (alternate).
func (f *FaultState) execNode(p *graph.Plan, o Observer, id, w int32, gen uint64, start int64) int64 {
	a := f.arr.Load()
	st := a.state[id].Load()
	probe := st&stateQuarantined != 0 && st&stateShed == 0 && gen >= a.probeAt[id].Load()
	if st != 0 && !probe {
		return f.alternate(p, o, id, w, start)
	}
	if probe {
		f.probes.Add(1)
	}
	f.running[w].Store(id + 1)
	end, err, ok := f.guard(p, o, id, w, start)
	switch {
	case ok && probe:
		a.updateBits(id, 0, stateQuarantined) // shed state is preserved
		a.consec[id].Store(0)
		f.restored.Add(1)
	case ok:
		if a.consec[id].Load() != 0 {
			a.consec[id].Store(0)
		}
	default:
		if probe {
			a.probeAt[id].Store(gen + f.policy.ProbeEvery)
		}
		f.noteFault(a, p, id, w, gen, err)
		end = stamp(o)
	}
	f.running[w].Store(0)
	return end
}

// guard runs node id under recover, reporting its end stamp (see
// record) on success or the panic value; a panicking node records no
// window.
func (f *FaultState) guard(p *graph.Plan, o Observer, id, w int32, start int64) (end int64, err any, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			err = r
			ok = false
		}
	}()
	p.Run[id]()
	return record(o, id, w, start), nil, true
}

// alternate runs the node's bypass stand-in (guarded too — a broken
// bypass must not crash either), records its window for the observer and
// returns its end stamp. A nil Bypass means skip — correct for in-place
// processors, whose input passes through; the window still keeps
// partial-trace checks honest about the node having been scheduled.
func (f *FaultState) alternate(p *graph.Plan, o Observer, id, w int32, start int64) int64 {
	if b := p.Bypass[id]; b != nil {
		f.safely(b)
	}
	return record(o, id, w, start)
}

// safely invokes fn, swallowing a panic.
func (f *FaultState) safely(fn func()) {
	defer func() { _ = recover() }()
	fn()
}

// noteFault records a contained fault: flush the node's half-written
// output, count towards quarantine, and report to the handler.
func (f *FaultState) noteFault(a *faultArrays, p *graph.Plan, id, w int32, gen uint64, err any) {
	f.recovered.Add(1)
	if fl := p.Flush[id]; fl != nil {
		f.safely(fl)
	}
	quarantined := false
	if n := a.consec[id].Add(1); n >= QuarantineAfter {
		if a.updateBits(id, stateQuarantined, 0) {
			f.quarantines.Add(1)
			a.probeAt[id].Store(gen + f.policy.ProbeEvery)
			quarantined = true
		}
	}
	if h := f.handler; h != nil {
		h(FaultRecord{
			Node:        id,
			Name:        p.Names[id],
			Worker:      w,
			Cycle:       gen,
			Err:         err,
			Quarantined: quarantined,
		})
	}
}

// updateBits sets the bits set and clears the bits unset in node id's
// state, reporting whether this call changed it: of two racing callers
// making one transition, exactly one reports it.
func (a *faultArrays) updateBits(id int32, set, unset uint32) bool {
	for {
		old := a.state[id].Load()
		next := old&^unset | set
		if old == next {
			return false
		}
		if a.state[id].CompareAndSwap(old, next) {
			return true
		}
	}
}
