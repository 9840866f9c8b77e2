package sched

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"djstar/internal/graph"
)

// NamePool is the strategy identifier for shared-pool sessions.
const NamePool = "pool"

// Typed Attach failures, so callers (the engine's admission front door,
// multi-session orchestration) can distinguish capacity exhaustion from
// shutdown with errors.Is instead of string matching.
var (
	// ErrPoolFull: every session slot is occupied.
	ErrPoolFull = errors.New("sched: pool is full")
	// ErrPoolClosed: the pool has been shut down.
	ErrPoolClosed = errors.New("sched: pool is closed")
)

// Slot states of a pool session slot.
const (
	slotEmpty   uint32 = iota
	slotIdle           // session attached, no cycle in flight
	slotRunning        // session attached, cycle in flight
)

// Pool is a shared execution runtime: one set of persistent,
// OS-thread-pinned workers serving many concurrently executing sessions.
// Every strategy scheduler in this package owns a private goroutine pool;
// Pool inverts that — N compiled plans attach to one pool and their
// Execute calls run concurrently over the same workers, the
// server-based-scheduling architecture of Nogueira & Pinho ("Supporting
// Parallelism in Server-based Multiprocessor Systems").
//
// Per-session cycle serialization is preserved: a session's Execute must
// not be called concurrently with itself, exactly like every other
// Scheduler, but different sessions may Execute from different
// goroutines at the same time. The Execute caller always participates in
// its own session's cycle, so a cycle completes even with zero pool
// workers or a fully loaded pool.
//
// Claim protocol (DESIGN.md §8, §24): a node is claimed by a CAS on its
// generation stamp. Each participant — helper or caller — scans its own
// section-homed permutation of the plan's rank order from a
// claimed-prefix cursor, and after running a node follows the
// continuation it readied; every participant can still claim every ready
// node, so the pool stays work-conserving.
//
// Memory model: node effects are published across OS threads through the
// per-session pending counters and claim stamps (sync/atomic,
// sequentially consistent in Go); a node's claimant therefore observes
// all buffer writes of the node's predecessors, regardless of which
// worker — or which session's caller — ran them.
type Pool struct {
	workers int
	slots   []poolSlot
	// hi is one past the highest attached slot: the parking re-check
	// (anyClaimable) reads slots [0, hi), not the whole capacity.
	// Guarded by idle.mu (install, detach, park).
	hi int

	// idle parks a helper with nothing to do anywhere; a session that
	// publishes work wakes it.
	idle parking

	// onWorkerStart is PoolOptions.OnWorkerStart (nil = none).
	onWorkerStart func(worker int)

	closed atomic.Bool
}

// poolSlot is one attachable session position.
type poolSlot struct {
	state atomic.Uint32
	sess  atomic.Pointer[PoolSession]
}

// PoolOptions tune a Pool beyond its worker/capacity sizing.
type PoolOptions struct {
	// OnWorkerStart, when set, runs once on each helper worker's
	// goroutine after it has locked its OS thread and before it serves
	// any session. Shard layers use it to pin the worker's thread to the
	// shard's CPU set; it must not block indefinitely.
	OnWorkerStart func(worker int)
}

// NewPool starts a shared pool with the given number of persistent
// helper workers and session capacity. Workers may be 0: sessions then
// run entirely on their callers, still through the shared-pool claim
// protocol. Total parallelism available to one session is workers+1 (the
// pool plus its own caller).
func NewPool(workers, capacity int) (*Pool, error) {
	return NewPoolWith(workers, capacity, PoolOptions{})
}

// NewPoolWith is NewPool with explicit options.
func NewPoolWith(workers, capacity int, opts PoolOptions) (*Pool, error) {
	if workers < 0 {
		return nil, fmt.Errorf("sched: pool workers = %d, want >= 0", workers)
	}
	if capacity < 1 {
		return nil, fmt.Errorf("sched: pool capacity = %d, want >= 1", capacity)
	}
	p := &Pool{
		workers:       workers,
		slots:         make([]poolSlot, capacity),
		onWorkerStart: opts.OnWorkerStart,
	}
	p.idle.init()
	for w := 0; w < workers; w++ {
		go p.worker(int32(w))
	}
	return p, nil
}

// Workers returns the helper worker count.
func (p *Pool) Workers() int { return p.workers }

// Capacity returns the maximum number of attached sessions.
func (p *Pool) Capacity() int { return len(p.slots) }

// Attach registers a compiled plan as a new session on the pool. The
// returned session implements Scheduler; its Close detaches it, freeing
// the slot. Attach fails when the pool is full or closed. Only
// o.Observer is honoured: a session's parallelism is the pool's
// (workers+1), not o.Threads.
func (p *Pool) Attach(plan *graph.Plan, o Options) (*PoolSession, error) {
	if plan == nil || plan.Len() == 0 {
		return nil, fmt.Errorf("sched: empty plan")
	}
	s := &PoolSession{faults: newFaultState(plan, p.workers+1), pool: p}
	s.topo.Store(newPoolTopo(plan, o.Observer, p.workers+1, 0))
	if err := p.install(s); err != nil {
		return nil, err
	}
	return s, nil
}

// install places s in the lowest free slot and raises the high-water
// mark over it.
func (p *Pool) install(s *PoolSession) error {
	p.idle.mu.Lock()
	defer p.idle.mu.Unlock()
	if p.closed.Load() {
		return ErrPoolClosed
	}
	for i := range p.slots {
		if p.slots[i].state.Load() != slotEmpty {
			continue
		}
		s.slot = int32(i)
		p.slots[i].sess.Store(s)
		p.slots[i].state.Store(slotIdle)
		p.hi = max(p.hi, i+1)
		return nil
	}
	return fmt.Errorf("%w (%d sessions)", ErrPoolFull, len(p.slots))
}

// detach frees s's slot and lowers the high-water mark to the highest
// slot still attached.
func (p *Pool) detach(s *PoolSession) {
	p.idle.mu.Lock()
	defer p.idle.mu.Unlock()
	p.slots[s.slot].state.Store(slotEmpty)
	p.slots[s.slot].sess.Store(nil)
	for p.hi > 0 && p.slots[p.hi-1].state.Load() == slotEmpty {
		p.hi--
	}
}

// AttachMigrated moves a quiescent session from its current pool onto p
// — the shard-drain primitive. The new session continues the old one
// mid-stream: same plan and observer, the same FaultState object
// (quarantine/shed bits, policy, handler, counters — whoever holds the
// pointer keeps steering the session), and the same cycle generation, so
// no cycle is lost or doubled across the move. On success the old
// session is detached (its slot frees for a new Attach); on failure it
// is left attached and untouched.
//
// p must not expose more parallelism than the pool the session was first
// attached to: the fault state's inflight view is sized once. The caller
// must guarantee the old session has no Execute in flight — fleet
// drivers migrate strictly between cycles. o.Observer, when set,
// replaces the carried observer (the usual case keeps it nil: the
// engine's collector travels with the engine, not the pool).
func (p *Pool) AttachMigrated(old *PoolSession, o Options) (*PoolSession, error) {
	if old == nil {
		return nil, fmt.Errorf("sched: AttachMigrated of nil session")
	}
	if old.closed.Load() {
		return nil, fmt.Errorf("sched: AttachMigrated of closed session")
	}
	if n := old.faults.Workers(); p.workers+1 > n {
		return nil, fmt.Errorf("sched: AttachMigrated target exposes %d workers, session is sized for %d",
			p.workers+1, n)
	}
	ot := old.topo.Load()
	obs := ot.obs
	if o.Observer != nil {
		obs = o.Observer
	}
	// The destination's participant count decides the scan orders and
	// cursors, so the epoch is rebuilt for p, never carried over. It
	// continues the old session's cycle generation, so the first
	// post-migration cycle (gen+1) claims every node exactly once and
	// observers keep a monotonic cycle coordinate. A swap staged but not
	// yet adopted travels as it is: adoption builds its epoch for p.
	ns := &PoolSession{faults: old.faults, pool: p}
	ns.topo.Store(newPoolTopo(ot.plan, obs, p.workers+1, ot.gen.Load()))
	ns.staged.Store(old.staged.Load())
	if err := p.install(ns); err != nil {
		return nil, err
	}
	old.Close()
	return ns, nil
}

// Close shuts the pool down. It is idempotent. All sessions must be
// closed (or at least quiescent) first; Execute on any attached session
// panics afterwards.
func (p *Pool) Close() {
	if !p.closed.CompareAndSwap(false, true) {
		return
	}
	p.idle.wakeAll()
}

// worker is one persistent pool worker: it scans the session slots for
// claimable nodes, helping whichever sessions have a cycle in flight,
// and parks when there is nothing to do anywhere.
//
// The round walks every slot, not [0, hi): on a 256-slot shard that walk
// is ~4 µs between two runtime.Gosched calls, i.e. it is the helper's
// spin, and it sets how often the locked thread goes through Gosched's
// futex hand-off. Bounding it by hi was measured (EXPERIMENTS.md R15)
// and is a spin-policy change, which belongs to the shard tick driver.
func (p *Pool) worker(w int32) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if p.onWorkerStart != nil {
		p.onWorkerStart(int(w))
	}
	n := len(p.slots)
	next := int(w) % n // stagger scan starts across workers
	failedRounds := 0
	for !p.closed.Load() {
		ran := false
		for i := 0; i < n; i++ {
			slot := &p.slots[(next+i)%n]
			if slot.state.Load() != slotRunning {
				continue
			}
			sess := slot.sess.Load()
			if sess == nil {
				continue
			}
			if sess.help(w) {
				ran = true
				// Keep helping the same session while it has work: the
				// next scan starts here.
				next = (next + i) % n
				break
			}
		}
		if ran {
			failedRounds = 0
			continue
		}
		failedRounds++
		if failedRounds < 256 {
			runtime.Gosched()
			continue
		}
		p.idle.park(p.closed.Load, func() bool { return p.anyClaimable(w) })
		failedRounds = 0
	}
}

// anyClaimable reports whether any running session currently has a node
// helper w could claim. Called only on the slow parking path, with idle.mu
// held, by w itself (the scan advances w's cursors).
func (p *Pool) anyClaimable(w int32) bool {
	for i := range p.slots[:p.hi] {
		if p.slots[i].state.Load() != slotRunning {
			continue
		}
		sess := p.slots[i].sess.Load()
		if sess == nil {
			continue
		}
		t := sess.topo.Load()
		if _, ok := t.scan(w, t.gen.Load(), false); ok {
			return true
		}
	}
	return false
}

// PoolSession is one compiled plan attached to a shared Pool. It
// implements Scheduler: Execute runs one full graph iteration, with the
// caller participating and pool workers helping. Execute is not safe for
// concurrent calls on the same session (per-session cycles are
// serialized by the caller, like every Scheduler), but distinct sessions
// of one pool may Execute concurrently.
type PoolSession struct {
	// faults provides panic recovery, quarantine and load shedding, per
	// session — a faulty node in one session never affects its siblings
	// on the same pool.
	faults *FaultState

	pool *Pool
	slot int32
	// private is the strategy name of a private single-session pool's
	// session (see newPrivatePool), whose Close also closes the pool; ""
	// on a shared pool.
	private string

	// topo bundles the session's plan with ALL of its per-cycle claim
	// state — including the cycle counter. The bundle swaps atomically
	// on a topology edit (see AdoptStaged); bundling gen with the claim
	// arrays is what makes the swap safe against stale helpers: a pool
	// worker that loaded the old bundle just before a swap reads the OLD
	// bundle's gen, which is frozen at the last completed cycle, and a
	// completed cycle leaves every old claim stamp at that generation —
	// so the stale helper's CAS can never win a node again. Had gen
	// lived on the session, that helper could pair the old arrays with
	// the NEW cycle's generation and re-claim (double-run) an old node.
	topo atomic.Pointer[poolTopo]

	// staged holds a pending topology swap (StageSwap/AdoptStaged).
	staged atomic.Pointer[Swap]

	closed atomic.Bool
}

// poolTopo is one plan epoch of a pool session: the compiled plan, the
// observer recording it, the cycle counter and, with helpers, the
// claim-protocol state.
type poolTopo struct {
	plan *graph.Plan
	// obs is the epoch's observer (nil = none). Pool workers record
	// their pool worker index; the session's own caller records index
	// Threads()-1. It lives in the bundle because helpers read it from
	// other threads — the bundle pointer load publishes it.
	obs Observer

	// pending[i] counts node i's unfinished dependencies this cycle.
	pending []atomic.Int32
	// claimed[i] is the generation stamp of node i's last claim. A node
	// is claimable when pending[i] == 0 and claimed[i] < the session
	// generation; the winning CAS to the current generation grants the
	// exclusive right to run it. Stamps are monotonic, so a worker
	// holding a stale generation can never claim (and thus never
	// double-run) a node of a later cycle. A freshly adopted epoch's
	// stamps start at the adoption generation (not zero) so helpers
	// still holding the pre-swap generation cannot claim from it.
	claimed []atomic.Uint64
	// gen is the cycle counter of this epoch (continues across swaps).
	gen atomic.Uint64
	// remaining counts nodes not yet completed this cycle; the Execute
	// caller returns when it reaches zero.
	remaining atomic.Int32

	// orders holds one permutation of plan.RankOrder per participant
	// (helpers 0…workers-1, then the Execute caller), back to back:
	// participant w scans orders[w*n:(w+1)*n]. The nodes of the sections
	// homed at w (poolHome) come first, everyone else's follow, each part
	// in rank order. Every order contains every node, so any ready node
	// stays claimable by any participant; only the preference differs.
	orders []int32
	// cursors[w] is participant w's scan start (see poolCursor).
	cursors []poolCursor
}

// poolCursor is one participant's claimed-prefix cursor: within cycle
// gen, the first pos nodes of its order are already claimed, so its
// scans start there. Claim stamps only rise within a generation, so a
// skipped node can never become claimable again before gen changes — and
// a cursor whose gen is not the scanner's restarts at 0. It is plain
// memory: cursors[w] is touched only by participant w (helper w's
// goroutine; for the caller's index, whichever goroutine holds the
// session's Execute, which the Scheduler contract serializes), and
// padded to a cache line so neighbours do not share one.
type poolCursor struct {
	gen uint64
	pos int32
	_   [cacheLine - 12]byte
}

// poolHome is the participant (of `participants`, the last being the
// Execute caller) whose scan order leads with section sec's nodes, or -1
// for a section nobody leads with: decks are dealt round-robin from
// helper 0; the master section stays with the caller, which is where the
// cycle's output is consumed; control nodes have no home — they are
// short, always-ready sources off the audio path, so they sit at the
// tail of every order (rank order puts them last) and fill the wait for
// the last deck chain instead of delaying anyone's start on it. The only
// definition of "home" in the package.
func poolHome(sec graph.Section, participants int) int {
	switch {
	case sec >= graph.SectionDeckA && sec <= graph.SectionDeckD:
		return int(sec-graph.SectionDeckA) % participants
	case sec == graph.SectionMaster:
		return participants - 1
	default:
		return -1
	}
}

// newPoolTopo builds one plan epoch for a pool of the given participant
// count (workers+1) — the pool session's one per-plan builder, shared by
// Attach, AttachMigrated and AdoptStaged. The epoch continues a
// predecessor's cycle counter at gen (0 for a new session): every claim
// stamp starts at gen, so nodes are claimable only by generations > gen,
// i.e. the next cycle — never by a stale helper still holding gen — and
// the fresh cursors, at generation 0, start the first scan at the head
// of their order. One participant walks plan.Order (see Execute) and
// reads no claim state, so its epoch has none.
func newPoolTopo(plan *graph.Plan, obs Observer, participants int, gen uint64) *poolTopo {
	t := &poolTopo{plan: plan, obs: obs}
	t.gen.Store(gen)
	if participants == 1 {
		return t
	}
	n := plan.Len()
	t.pending = make([]atomic.Int32, n)
	t.claimed = make([]atomic.Uint64, n)
	t.orders = make([]int32, 0, participants*n)
	t.cursors = make([]poolCursor, participants)
	for i := range t.claimed {
		t.claimed[i].Store(gen)
	}
	for w := 0; w < participants; w++ {
		for _, id := range plan.RankOrder {
			if poolHome(plan.Sections[id], participants) == w {
				t.orders = append(t.orders, id)
			}
		}
		for _, id := range plan.RankOrder {
			if poolHome(plan.Sections[id], participants) != w {
				t.orders = append(t.orders, id)
			}
		}
	}
	return t
}

// newPrivatePool builds New's NamePool and NameSequential executors: a
// single-session pool of threads-1 helper workers plus the Execute
// caller, owned by its one session. NameSequential is its helper-less
// case, the width-1 walk.
func newPrivatePool(name string, threads int, plan *graph.Plan, o Options) (*PoolSession, error) {
	p, err := NewPool(threads-1, 1)
	if err != nil {
		return nil, err
	}
	s, err := p.Attach(plan, o)
	if err != nil {
		p.Close()
		return nil, err
	}
	s.private = name
	return s, nil
}

// Name implements Scheduler.
func (s *PoolSession) Name() string { return cmp.Or(s.private, NamePool) }

// FaultState implements Scheduler.
func (s *PoolSession) FaultState() *FaultState { return s.faults }

// Threads implements Scheduler: the parallelism available to this
// session — the pool's workers plus the Execute caller.
func (s *PoolSession) Threads() int { return s.pool.workers + 1 }

// Execute implements Scheduler: one full iteration of this session's
// plan, concurrent with other sessions on the same pool. Allocation-free
// in steady state.
func (s *PoolSession) Execute() {
	if s.closed.Load() || s.pool.closed.Load() {
		panic("sched: Execute called after Close")
	}
	if s.staged.Load() != nil {
		s.AdoptStaged()
	}
	t := s.topo.Load()
	if t.obs != nil {
		t.obs.BeginCycle()
	}
	if s.pool.workers == 0 {
		// The width-1 cycle (seq's, paper §IV): the caller walks the
		// topological plan.Order, with no claim, dependency count or wake;
		// gen still advances, for fault probes, swaps and migration.
		gen, ts := t.gen.Add(1), stamp(t.obs)
		for _, id := range t.plan.Order {
			ts = s.faults.exec(t.plan, t.obs, id, 0, gen, ts)
		}
	} else {
		s.claimCycle(t)
	}
	// Every node's Record happened before its completion, so at this
	// point the observer has seen the whole realization.
	if t.obs != nil {
		t.obs.EndCycle()
	}
}

// claimCycle runs one cycle of epoch t through the claim protocol, the
// caller participating until every node has completed.
func (s *PoolSession) claimCycle(t *poolTopo) {
	// Reset per-cycle state BEFORE publishing the new generation: a
	// worker that observes the new generation therefore also observes
	// the reset counters (sequentially consistent atomics).
	for i := range t.pending {
		t.pending[i].Store(t.plan.Indegree[i])
	}
	t.remaining.Store(int32(t.plan.Len()))
	gen := t.gen.Add(1)
	slot := &s.pool.slots[s.slot]
	slot.state.Store(slotRunning)
	s.pool.idle.wakeIfIdle()

	// Participate as the session's own worker until the cycle is done,
	// stamping afresh after each failed scan (a wait).
	callerID := int32(s.pool.workers)
	ts := stamp(t.obs)
	for t.remaining.Load() > 0 {
		id, ok := t.scan(callerID, gen, true)
		if !ok {
			// Nothing claimable right now: pool workers hold the rest.
			runtime.Gosched()
			ts = stamp(t.obs)
			continue
		}
		ts = s.run(t, id, callerID, gen, ts)
	}
	slot.state.Store(slotIdle)
}

// help lets pool worker w claim one node of this session and run it and
// the continuations it readies. It reports whether a node was executed.
// The topology bundle and its generation are loaded together; a helper
// racing a swap works entirely against the old epoch, whose frozen
// generation makes every claim CAS fail (see PoolSession.topo).
func (s *PoolSession) help(w int32) bool {
	t := s.topo.Load()
	gen := t.gen.Load()
	id, ok := t.scan(w, gen, true)
	if !ok {
		return false
	}
	s.run(t, id, w, gen, stamp(t.obs))
	return true
}

// StageSwap implements Scheduler: stage a topology swap for this
// session. Safe from any goroutine.
func (s *PoolSession) StageSwap(sw Swap) error {
	if s.closed.Load() || s.pool.closed.Load() {
		return fmt.Errorf("sched: StageSwap after Close")
	}
	if sw.Plan == nil || sw.Plan.Len() == 0 {
		return fmt.Errorf("sched: swap with empty plan")
	}
	s.staged.Store(&sw)
	return nil
}

// AdoptStaged implements Scheduler: build the staged swap's epoch for
// this pool and install it between two of this session's cycles (no
// Execute in flight). Other sessions on the pool are unaffected and may
// be mid-cycle.
func (s *PoolSession) AdoptStaged() bool {
	sw := s.staged.Swap(nil)
	if sw == nil || s.closed.Load() {
		return false
	}
	old := s.topo.Load()
	obs := old.obs
	if sw.Observer != nil {
		obs = sw.Observer
	}
	s.faults.adopt(sw.Plan, sw.OldToNew)
	s.topo.Store(newPoolTopo(sw.Plan, obs, s.pool.workers+1, old.gen.Load()))
	return true
}

// tryClaim stamps node id with gen if no claimant of this cycle has. The
// stamp CAS is the exclusivity point: exactly one claimant wins each
// node per cycle. A stale gen (from a worker that read the counter just
// before a new cycle) can only ever claim nodes stamped strictly older
// than it — and a completed cycle leaves every stamp at its generation,
// so stale claims are impossible once the cycle that published them
// finished.
func (t *poolTopo) tryClaim(id int32, gen uint64) bool {
	old := t.claimed[id].Load()
	return old < gen && t.claimed[id].CompareAndSwap(old, gen)
}

// scan walks participant w's order from its cursor for a ready,
// unclaimed node of cycle gen, advancing the cursor over the claimed
// prefix on the way. With take it claims the node it returns (and moves
// on when another claimant wins the CAS); without, it only reports one.
// The order puts w's home sections first and is rank-sorted within each
// part, so among ready nodes the claimant prefers its own sections' and
// then the one heading the most expensive remaining chain.
func (t *poolTopo) scan(w int32, gen uint64, take bool) (int32, bool) {
	c := &t.cursors[w]
	if c.gen != gen {
		c.gen, c.pos = gen, 0
	}
	n := int32(len(t.claimed))
	order := t.orders[w*n : (w+1)*n]
	prefix := true
	for i := c.pos; i < n; i++ {
		id := order[i]
		if t.claimed[id].Load() >= gen {
			// Already claimed this cycle (or the claimant is stale).
			if prefix {
				c.pos = i + 1
			}
			continue
		}
		prefix = false
		if t.pending[id].Load() != 0 {
			continue // dependencies still running
		}
		if !take || t.tryClaim(id, gen) {
			return id, true
		}
	}
	return 0, false
}

// run executes a claimed node, resolves its successors and retires it
// from the cycle — then follows its continuation: of the successors this
// participant's decrement made ready it claims the highest-ranked one
// (the first: graph.Plan keeps successor lists in descending rank) and
// runs it next, without a scan, so a chain stays on one thread and most
// claims cost one CAS. Other readied successors stay claimable by anyone.
// The remaining decrement comes after the successor releases so the
// Execute caller cannot observe completion before the node's effects are
// published; a claimed continuation is still counted in remaining, so
// the cycle (and gen) cannot move on under it. A continuation starts at
// its predecessor's end stamp, or after the wake-up its release made.
func (s *PoolSession) run(t *poolTopo, id, w int32, gen uint64, start int64) int64 {
	for {
		start = s.faults.exec(t.plan, t.obs, id, w, gen, start)
		next, readied := int32(-1), 0
		for _, succ := range t.plan.SuccsOf(id) {
			if t.pending[succ].Add(-1) == 0 {
				if readied++; next < 0 {
					next = succ
				}
			}
		}
		if next >= 0 && t.tryClaim(next, gen) {
			readied--
		} else {
			next = -1
		}
		t.remaining.Add(-1)
		if readied > 0 && s.pool.idle.wakeIfIdle() {
			start = stamp(t.obs) // a wake-up is a wait: the next window starts after it
		}
		if next < 0 {
			return start
		}
		id = next
	}
}

// Close implements Scheduler: it detaches the session from the pool,
// freeing its slot for a new Attach (and closes a private pool with its
// one session). Idempotent. The session must be quiescent (no Execute in
// flight).
func (s *PoolSession) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	p := s.pool
	p.detach(s)
	if s.private != "" {
		p.Close()
	}
}
