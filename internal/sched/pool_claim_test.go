package sched

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"djstar/internal/graph"
)

// Tests of the pool's claim protocol itself: the section-homed scan
// orders, continuation following and the claimed-prefix cursor. The
// protocol's logic is exercised on deterministic, single-goroutine
// interleavings (simPool); the threaded suites assert what real
// concurrency can assert without reading a clock's magnitude:
// exactly-once and happens-before.

// orderLog is an Observer that keeps the order in which nodes were
// recorded and who ran them. Not safe for concurrent Record calls: the
// deterministic tests run every participant on one goroutine.
type orderLog struct {
	ids     []int32
	workers []int32
}

func (o *orderLog) BeginCycle() { o.ids, o.workers = o.ids[:0], o.workers[:0] }
func (o *orderLog) EndCycle()   {}
func (o *orderLog) Record(node, worker int32, _, _ int64) {
	o.ids = append(o.ids, node)
	o.workers = append(o.workers, worker)
}

// simPool builds a pool of the given participant count WITHOUT starting
// its helper goroutines, with one session attached. The test plays the
// helpers itself by calling sess.help(w) from inside node Run functions,
// so every interleaving it produces is deterministic and runs the real
// Execute, help, scan and run.
func simPool(t *testing.T, plan *graph.Plan, obs Observer, participants int) (*Pool, *PoolSession) {
	t.Helper()
	p := idlePool(participants-1, 1)
	s := &PoolSession{faults: newFaultState(plan, participants), pool: p}
	s.topo.Store(newPoolTopo(plan, obs, participants, 0))
	if err := p.install(s); err != nil {
		t.Fatal(err)
	}
	return p, s
}

// executeBounded runs one cycle of a simPool session and fails the test
// if it does not finish: with no helper threads, a scan that wrongly
// finds nothing would leave the caller polling forever.
func executeBounded(t *testing.T, s *PoolSession) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Execute()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Execute did not finish: the caller found nothing to claim while nodes remained")
	}
}

// idlePool is a pool whose helper goroutines were never started.
func idlePool(workers, capacity int) *Pool {
	p := &Pool{workers: workers, slots: make([]poolSlot, capacity)}
	p.idle.init()
	return p
}

// anyReady is the brute-force oracle of the claim protocol: some node is
// ready and unclaimed in cycle gen.
func anyReady(t *poolTopo, gen uint64) bool {
	for id := range t.claimed {
		if t.claimed[id].Load() < gen && t.pending[id].Load() == 0 {
			return true
		}
	}
	return false
}

// referenceSequence is the protocol written as a specification, for one
// participant running alone: its order is its home sections' nodes in
// rank order, then everyone else's; it takes the first ready unclaimed
// node of that order, and after each node runs the highest-ranked
// successor that node made ready, if any.
func referenceSequence(plan *graph.Plan, w, participants int) []int32 {
	var order []int32
	for _, home := range []bool{true, false} {
		for _, id := range plan.RankOrder {
			if (poolHome(plan.Sections[id], participants) == w) == home {
				order = append(order, id)
			}
		}
	}
	pending := append([]int32(nil), plan.Indegree...)
	ran := make([]bool, plan.Len())
	var seq []int32
	for len(seq) < plan.Len() {
		cur := int32(-1)
		for _, id := range order {
			if !ran[id] && pending[id] == 0 {
				cur = id
				break
			}
		}
		for cur >= 0 {
			ran[cur] = true
			seq = append(seq, cur)
			next := int32(-1)
			for _, succ := range plan.SuccsOf(cur) {
				if pending[succ]--; pending[succ] == 0 && (next < 0 || plan.Rank[succ] > plan.Rank[next]) {
					next = succ
				}
			}
			cur = next
		}
	}
	return seq
}

func djstarPlan(t *testing.T) (*graph.Session, *graph.Plan) {
	t.Helper()
	cfg := graph.DefaultConfig()
	cfg.TrackBars = 2
	cfg.Scale = 0
	sess, g, err := graph.BuildDJStar(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return sess, plan
}

// TestPoolOrdersAreHomedPermutations: every participant's order is a
// permutation of RankOrder, stably partitioned — home sections first —
// for every participant count above one, and home is poolHome: decks
// dealt over the participants, master on the caller, control with
// nobody. A one-participant epoch, whose caller walks plan.Order, holds
// no claim state at all.
func TestPoolOrdersAreHomedPermutations(t *testing.T) {
	_, plan := djstarPlan(t)
	n := plan.Len()
	for participants := 1; participants <= 6; participants++ {
		caller := participants - 1
		if h := poolHome(graph.SectionMaster, participants); h != caller {
			t.Fatalf("%d participants: master homed at %d, want the caller %d", participants, h, caller)
		}
		if h := poolHome(graph.SectionControl, participants); h != -1 {
			t.Fatalf("%d participants: control homed at %d, want nobody (-1)", participants, h)
		}
		for d := 0; d < 4; d++ {
			if h := poolHome(graph.DeckSection(d), participants); h != d%participants {
				t.Fatalf("%d participants: deck %d homed at %d, want %d", participants, d, h, d%participants)
			}
		}
		topo := newPoolTopo(plan, nil, participants, 7)
		if topo.plan != plan || topo.gen.Load() != 7 {
			t.Fatalf("%d participants: epoch over plan %p at generation %d, want %p at 7", participants, topo.plan, topo.gen.Load(), plan)
		}
		if participants == 1 {
			if topo.pending != nil || topo.claimed != nil || topo.orders != nil || topo.cursors != nil {
				t.Fatalf("width-1 epoch holds claim state: %d pending, %d claimed, %d order entries, %d cursors",
					len(topo.pending), len(topo.claimed), len(topo.orders), len(topo.cursors))
			}
			continue
		}
		for id := range topo.claimed {
			if got := topo.claimed[id].Load(); got != 7 {
				t.Fatalf("%d participants: node %d stamped %d, want the resumed generation 7", participants, id, got)
			}
		}
		if len(topo.orders) != participants*n || len(topo.cursors) != participants {
			t.Fatalf("%d participants: %d order entries, %d cursors", participants, len(topo.orders), len(topo.cursors))
		}
		rankPos := make([]int, n)
		for i, id := range plan.RankOrder {
			rankPos[id] = i
		}
		for w := 0; w < participants; w++ {
			order := topo.orders[w*n : (w+1)*n]
			seen := make([]bool, n)
			inHome, last := true, -1
			for _, id := range order {
				if seen[id] {
					t.Fatalf("participant %d/%d: node %d twice in its order", w, participants, id)
				}
				seen[id] = true
				home := poolHome(plan.Sections[id], participants) == w
				if home && !inHome {
					t.Fatalf("participant %d/%d: home node %s after a foreign one", w, participants, plan.Names[id])
				}
				if !home && inHome {
					inHome, last = false, -1
				}
				if rankPos[id] < last {
					t.Fatalf("participant %d/%d: %s out of rank order within its part", w, participants, plan.Names[id])
				}
				last = rankPos[id]
			}
		}
	}
}

// TestPoolCallerOrderPinned pins the sequence a participant running
// alone executes on the 67-node plan: first as the caller of a real
// zero-helper pool, which walks plan.Order (the width-1 cycle, seq's),
// then as the caller of a three-participant topology whose helpers never
// show up (master and deck C are home). There the sequence is the
// specification's, a deck's FX1…FX4→Channel chain runs back-to-back as
// continuations, and the caller does not touch a foreign section before
// its home sections' sources are done.
func TestPoolCallerOrderPinned(t *testing.T) {
	for _, participants := range []int{1, 3} {
		t.Run(fmt.Sprintf("participants%d", participants), func(t *testing.T) {
			sess, plan := djstarPlan(t)
			log := &orderLog{}
			var s *PoolSession
			if participants == 1 {
				p, err := NewPool(0, 1)
				if err != nil {
					t.Fatal(err)
				}
				defer p.Close()
				if s, err = p.Attach(plan, Options{Observer: log}); err != nil {
					t.Fatal(err)
				}
			} else {
				_, s = simPool(t, plan, log, participants)
			}
			caller := participants - 1
			want := plan.Order
			if participants > 1 {
				want = referenceSequence(plan, caller, participants)
			}
			for cycle := 0; cycle < 3; cycle++ {
				sess.Prepare()
				executeBounded(t, s)
				if len(log.ids) != len(want) {
					t.Fatalf("cycle %d: %d nodes recorded, want %d", cycle, len(log.ids), len(want))
				}
				for i := range want {
					if log.ids[i] != want[i] {
						t.Fatalf("cycle %d: position %d ran %s, specification says %s",
							cycle, i, plan.Names[log.ids[i]], plan.Names[want[i]])
					}
					if log.workers[i] != int32(caller) {
						t.Fatalf("cycle %d: %s recorded on worker %d, want the caller %d",
							cycle, plan.Names[log.ids[i]], log.workers[i], caller)
					}
				}
			}
			if participants == 1 {
				return
			}
			pos := make(map[string]int, plan.Len())
			for i, id := range log.ids {
				pos[plan.Names[id]] = i
			}
			for _, d := range []string{"A", "B", "C", "D"} {
				chain := []string{"FX" + d + "1", "FX" + d + "2", "FX" + d + "3", "FX" + d + "4", "Channel" + d}
				for i := 1; i < len(chain); i++ {
					if pos[chain[i]] != pos[chain[i-1]]+1 {
						t.Fatalf("%s ran at %d, not right after %s at %d: continuation not followed",
							chain[i], pos[chain[i]], chain[i-1], pos[chain[i-1]])
					}
				}
			}
			firstForeign := len(log.ids)
			for i, id := range log.ids {
				if poolHome(plan.Sections[id], participants) != caller {
					firstForeign = i
					break
				}
			}
			for i, id := range log.ids {
				if poolHome(plan.Sections[id], participants) == caller && plan.Indegree[id] == 0 && i > firstForeign {
					t.Fatalf("home source %s ran at %d, after foreign work began at %d",
						plan.Names[id], i, firstForeign)
				}
			}
		})
	}
}

// TestPoolContinuationPrefersRank: when a node readies several
// successors the participant follows the one heading the longest
// remaining chain, whatever its position in the successor list, and
// leaves the others to the scan.
func TestPoolContinuationPrefersRank(t *testing.T) {
	// Both insertion orders, so that in one of them the leaf precedes the
	// chain head in a's successor list whatever order Compile keeps.
	for _, leafFirst := range []bool{true, false} {
		g := graph.New()
		a := g.AddNode("a", graph.SectionMaster, nil)
		var leaf, head int
		if leafFirst {
			leaf = g.AddNode("leaf", graph.SectionMaster, nil)
			head = g.AddNode("head", graph.SectionMaster, nil)
		} else {
			head = g.AddNode("head", graph.SectionMaster, nil)
			leaf = g.AddNode("leaf", graph.SectionMaster, nil)
		}
		tail := g.AddNode("tail", graph.SectionMaster, nil)
		for _, e := range [][2]int{{a, leaf}, {a, head}, {head, tail}} {
			if err := g.AddEdge(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
		plan, err := g.Compile()
		if err != nil {
			t.Fatal(err)
		}
		log := &orderLog{}
		// Two participants, so the caller claims (one alone walks
		// plan.Order); the helper never shows up.
		_, s := simPool(t, plan, log, 2)
		executeBounded(t, s)
		want := []int32{int32(a), int32(head), int32(tail), int32(leaf)}
		if fmt.Sprint(log.ids) != fmt.Sprint(want) {
			t.Fatalf("leafFirst=%v: ran %v, want %v (a, then the head→tail chain, then the leaf)", leafFirst, log.ids, want)
		}
	}
}

// TestPoolClaimWorkConservation is the protocol's property test on
// deterministic interleavings. Every node's Run function lets idle
// helpers act — each sess.help(w) is a real helper round, and may nest:
// the helper's own nodes give the remaining helpers their turn — so
// claims, continuation CASes and cursor advances of up to four
// participants interleave in seeded, reproducible orders. At every
// helper round the brute-force oracle decides what must happen: help
// claims a node if and only if some node is ready and unclaimed, i.e.
// no participant idles past claimable work and no cursor ever skips a
// node. ExecTrace adds exactly-once (it panics on a double run) and
// dependency order against the base plan, whether the session runs it
// or its graph.Fuse rewrite.
func TestPoolClaimWorkConservation(t *testing.T) {
	rounds, claims := 0, 0 // helper rounds over the whole suite, and how many claimed
	for _, seed := range []uint64{1, 2, 3, 5, 8, 13} {
		for participants := 1; participants <= 4; participants++ {
			for _, fused := range []bool{false, true} {
				name := fmt.Sprintf("seed%d/participants%d/fused=%v", seed, participants, fused)
				t.Run(name, func(t *testing.T) {
					g, tr := graph.RandomDAG(graph.RandomSpec{Nodes: 28, EdgeProb: 0.12, MaxDeps: 2, Seed: seed})
					base, plan := fusePlan(t, g)
					if !fused {
						plan = base
					}
					_, s := simPool(t, plan, nil, participants)
					rng := rand.New(rand.NewSource(int64(seed)))
					busy := make([]bool, participants)
					var gen uint64
					var mismatch string // first oracle disagreement (set off the test goroutine)
					hook := func() {
						for w := 0; w < participants-1; w++ {
							if busy[w] || rng.Intn(2) == 0 {
								continue
							}
							topo := s.topo.Load()
							want := anyReady(topo, gen)
							busy[w] = true
							got := s.help(int32(w))
							busy[w] = false
							rounds++
							if got {
								claims++
							}
							if got != want && mismatch == "" {
								mismatch = fmt.Sprintf("helper %d: help = %v while a ready unclaimed node exists = %v", w, got, want)
							}
						}
					}
					for i := range base.Run {
						run := base.Run[i]
						base.Run[i] = func() { run(); hook() }
					}
					for cycle := 0; cycle < 12; cycle++ {
						tr.Reset()
						gen = s.topo.Load().gen.Load() + 1
						executeBounded(t, s)
						if mismatch != "" {
							t.Fatalf("cycle %d: %s", cycle, mismatch)
						}
						if err := tr.Check(base); err != nil {
							t.Fatalf("cycle %d: %v", cycle, err)
						}
					}
					if f := s.FaultState().Faults(); f.Recovered != 0 {
						t.Fatalf("%d node panics contained (a double run panics in ExecTrace)", f.Recovered)
					}
				})
			}
		}
	}
	if claims < 1000 || rounds-claims < 100 {
		t.Fatalf("vacuous: %d helper rounds, %d claimed, %d found nothing", rounds, claims, rounds-claims)
	}
}

// TestPoolStaleHelperClaimsNothing: a helper that read generation g-1,
// with a cursor left over from g-1, claims nothing in cycle g — not
// between g's counter reset and its publication, and not in the middle
// of g, where ready unclaimed nodes are in plain sight.
func TestPoolStaleHelperClaimsNothing(t *testing.T) {
	g, tr := graph.RandomDAG(graph.RandomSpec{Nodes: 30, EdgeProb: 0.15, Seed: 77})
	plan, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	const participants = 3
	_, s := simPool(t, plan, nil, participants)
	topo := s.topo.Load()
	var violation string // first stale claim (may be set off the test goroutine)
	stale := func(where string, gen uint64) {
		for w := int32(0); w < participants-1; w++ {
			if id, ok := topo.scan(w, gen, true); ok && violation == "" {
				violation = fmt.Sprintf("%s: stale helper %d (generation %d) claimed node %d", where, w, gen, id)
			}
		}
	}
	midCycle := 0
	var staleGen uint64
	for i := range plan.Run {
		run := plan.Run[i]
		plan.Run[i] = func() {
			run()
			if staleGen > 0 && anyReady(topo, staleGen+1) {
				midCycle++
				stale("mid-cycle", staleGen)
			}
		}
	}
	tr.Reset()
	executeBounded(t, s) // cycle 1; the helpers' cursors are still fresh
	for w := int32(0); w < participants-1; w++ {
		if _, ok := topo.scan(w, 1, false); ok { // leaves cursor {gen 1, pos n}
			t.Fatalf("helper %d sees claimable work after cycle 1 finished", w)
		}
	}
	// What Execute does before it publishes generation 2.
	for i := range topo.pending {
		topo.pending[i].Store(plan.Indegree[i])
	}
	stale("between reset and publish", 1)
	staleGen = 1
	tr.Reset()
	executeBounded(t, s) // cycle 2, with the stale helpers poking at it
	if violation != "" {
		t.Fatal(violation)
	}
	if err := tr.Check(plan); err != nil {
		t.Fatal(err)
	}
	if f := s.FaultState().Faults(); f.Recovered != 0 {
		t.Fatalf("%d node panics contained (a double run panics in ExecTrace)", f.Recovered)
	}
	if midCycle == 0 {
		t.Fatal("vacuous: no mid-cycle moment had a ready unclaimed node")
	}
}

// TestPoolClaimPropertyThreaded is the seeded RandomDAG suite (random
// sections) over real helper threads: helpers 0…3 × the plan and its
// graph.Fuse rewrite. Every base node runs exactly once per cycle, and
// every edge of the executed plan shows its happens-before in the
// observer's windows (see edgeOrdered).
func TestPoolClaimPropertyThreaded(t *testing.T) {
	for _, seed := range []uint64{2, 4, 8, 16} {
		for helpers := 0; helpers <= 3; helpers++ {
			for _, fused := range []bool{false, true} {
				name := fmt.Sprintf("seed%d/helpers%d/fused=%v", seed, helpers, fused)
				t.Run(name, func(t *testing.T) {
					g, tr := graph.RandomDAG(graph.RandomSpec{Nodes: 24, EdgeProb: 0.1, MaxDeps: 1, Seed: seed})
					base, plan := fusePlan(t, g)
					if !fused {
						plan = base
					}
					p, err := NewPool(helpers, 1)
					if err != nil {
						t.Fatal(err)
					}
					defer p.Close()
					trace := newRecorder(plan.Len())
					s, err := p.Attach(plan, Options{Observer: trace})
					if err != nil {
						t.Fatal(err)
					}
					defer s.Close()
					for cycle := 0; cycle < 40; cycle++ {
						tr.Reset()
						s.Execute()
						if err := tr.Check(base); err != nil {
							t.Fatalf("cycle %d: %v", cycle, err)
						}
						ev := trace.Events()
						for v := 0; v < plan.Len(); v++ {
							if ev[v].Worker < 0 || int(ev[v].Worker) >= s.Threads() {
								t.Fatalf("cycle %d: node %d recorded on worker %d", cycle, v, ev[v].Worker)
							}
							for _, u := range plan.PredsOf(int32(v)) {
								if err := edgeOrdered(ev, u, int32(v)); err != nil {
									t.Fatalf("cycle %d: %v", cycle, err)
								}
							}
						}
					}
					if f := s.FaultState().Faults(); f.Recovered != 0 {
						t.Fatalf("%d node panics contained (a double run panics in ExecTrace)", f.Recovered)
					}
				})
			}
		}
	}
}

// TestPoolMigrationAndSwapKeepProtocolSound migrates a running session
// 3 helpers → 1 helper → 3 helpers and edits its topology in between —
// including an edit staged on the wide pool and adopted on the narrow
// one. Every epoch the session runs on must be built for the pool it is
// on (orders and cursors for workers+1 participants, never an index
// past that), every live node runs exactly once per cycle in dependency
// order, and the cycle number advances by exactly one per Execute across
// every move and swap.
func TestPoolMigrationAndSwapKeepProtocolSound(t *testing.T) {
	newPool := func(helpers int) *Pool {
		p, err := NewPool(helpers, 1)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		return p
	}
	wide, narrow, wide2 := newPool(3), newPool(1), newPool(3)

	rng := rand.New(rand.NewSource(9))
	e := newEditable(14, 0.2, rng)
	plan, err := e.g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	s, err := wide.Attach(plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()

	var lastGen uint64
	check := func(tag string) {
		t.Helper()
		for c := 0; c < 4; c++ {
			e.runAndCheck(t, s, plan, 1, tag)
			topo := s.topo.Load()
			if gen := topo.gen.Load(); gen != lastGen+1 {
				t.Fatalf("%s: cycle number went %d -> %d, want +1", tag, lastGen, gen)
			}
			lastGen++
			participants := s.pool.workers + 1
			if topo.plan != plan {
				t.Fatalf("%s: session is not running the current plan", tag)
			}
			if len(topo.cursors) != participants || len(topo.orders) != participants*plan.Len() {
				t.Fatalf("%s: epoch built for %d cursors / %d order entries, pool has %d participants × %d nodes",
					tag, len(topo.cursors), len(topo.orders), participants, plan.Len())
			}
		}
	}
	edit := func() {
		t.Helper()
		for {
			plan2, r, ok := e.mutate(rng, 6)
			if !ok {
				continue
			}
			if err := s.StageSwap(Swap{Plan: plan2, OldToNew: r.OldToNew}); err != nil {
				t.Fatal(err)
			}
			plan = plan2
			return
		}
	}
	migrate := func(dst *Pool) {
		t.Helper()
		ns, err := dst.AttachMigrated(s, Options{})
		if err != nil {
			t.Fatal(err)
		}
		s = ns
	}

	check("wide")
	edit() // staged on 4 participants…
	migrate(narrow)
	check("narrow, edit staged before the move") // …adopted on 2
	edit()
	check("narrow, edited in place")
	edit()
	migrate(wide2)
	check("wide again, edit staged before the move")
	edit()
	check("wide again, edited in place")
}

// TestPoolSlotHighWater: install and detach keep hi one past the highest
// attached slot, and the parking re-check of a capacity-256 pool with
// one session never reads a slot at or beyond it — a trap session parked
// in slot 200, marked running and claimable, goes unseen until hi is
// raised over it.
func TestPoolSlotHighWater(t *testing.T) {
	plan := noopPlan(t, 8)
	p := idlePool(1, 256)
	attach := func() *PoolSession {
		t.Helper()
		s := &PoolSession{faults: newFaultState(plan, 2), pool: p}
		s.topo.Store(newPoolTopo(plan, nil, 2, 0))
		if err := p.install(s); err != nil {
			t.Fatal(err)
		}
		return s
	}
	wantHi := func(want int) {
		t.Helper()
		if p.hi != want {
			t.Fatalf("hi = %d, want %d", p.hi, want)
		}
	}
	a, b, c := attach(), attach(), attach()
	wantHi(3)
	b.Close()
	wantHi(3) // slot 2 still attached
	c.Close()
	wantHi(1) // slots 1 and 2 both free
	if s := attach(); s.slot != 1 {
		t.Fatalf("re-attach took slot %d, want the lowest free slot 1", s.slot)
	}
	wantHi(2)

	// The trap: a session whose first cycle is published and fully
	// claimable, in a slot install never handed out.
	trap := &PoolSession{faults: newFaultState(plan, 2), pool: p, slot: 200}
	tt := newPoolTopo(plan, nil, 2, 0)
	for i := range tt.pending {
		tt.pending[i].Store(plan.Indegree[i])
	}
	tt.gen.Store(1)
	trap.topo.Store(tt)
	p.slots[200].sess.Store(trap)
	p.slots[200].state.Store(slotRunning)
	if p.anyClaimable(0) {
		t.Fatal("anyClaimable read a slot at or beyond hi")
	}
	p.hi = 201
	if !p.anyClaimable(0) {
		t.Fatal("the trap is not claimable: the test above proves nothing")
	}
	p.hi = 2
	a.Close()
	wantHi(2)
}

// TestPoolMigrationUpdatesHighWater: AttachMigrated raises the
// destination's mark and lowers the source's.
func TestPoolMigrationUpdatesHighWater(t *testing.T) {
	plan := noopPlan(t, 8)
	src, err := NewPool(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst, err := NewPool(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	s, err := src.Attach(plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Execute()
	ns, err := dst.AttachMigrated(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	hiOf := func(p *Pool) int {
		p.idle.mu.Lock()
		defer p.idle.mu.Unlock()
		return p.hi
	}
	if s, d := hiOf(src), hiOf(dst); s != 0 || d != 1 {
		t.Fatalf("after migration: source hi = %d, destination hi = %d, want 0 and 1", s, d)
	}
	ns.Execute()
}
