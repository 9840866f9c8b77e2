package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"djstar/internal/graph"
)

// TestPoolWidthOne: a helper-less pool — a fleet shard that owns one CPU,
// and seq's executor — walks plan.Order on the caller, beside a sibling
// session on the same pool, and keeps what the claim path keeps: each
// node runs exactly once per cycle in dependency order, the generation
// advances by one per Execute, Execute allocates nothing and adopts a
// staged swap at its top, and AttachMigrated between two helper-less
// pools carries the generation, a staged swap and the FaultState object.
func TestPoolWidthOne(t *testing.T) {
	newPool := func() *Pool {
		p, err := NewPool(0, 2)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		return p
	}
	a, b := newPool(), newPool()

	g, tr := graph.RandomDAG(graph.RandomSpec{Nodes: 30, EdgeProb: 0.1, Seed: 5})
	splan, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	sib, err := a.Attach(splan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stop, errs := make(chan struct{}), make(chan error, 1)
	go func() {
		defer close(errs)
		for {
			select {
			case <-stop:
				return
			default:
			}
			tr.Reset()
			sib.Execute()
			if err := tr.Check(splan); err != nil {
				errs <- fmt.Errorf("sibling session: %w", err)
				return
			}
		}
	}()
	defer func() {
		close(stop)
		if err := <-errs; err != nil {
			t.Error(err)
		}
		sib.Close()
	}()

	rng := rand.New(rand.NewSource(3))
	e := newEditable(14, 0.2, rng)
	plan, err := e.g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	log := &orderLog{}
	s, err := a.Attach(plan, Options{Observer: log})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	var gen uint64
	cycle := func(tag string) {
		t.Helper()
		e.runAndCheck(t, s, plan, 1, tag)
		if got := s.topo.Load().gen.Load(); got != gen+1 {
			t.Fatalf("%s: cycle number went %d -> %d, want +1", tag, gen, got)
		}
		gen++
		if fmt.Sprint(log.ids) != fmt.Sprint(plan.Order) {
			t.Fatalf("%s: ran %v, want plan.Order %v", tag, log.ids, plan.Order)
		}
		for _, w := range log.workers {
			if w != 0 {
				t.Fatalf("%s: a node recorded on worker %d, want the caller 0", tag, w)
			}
		}
	}
	edit := func() {
		t.Helper()
		for {
			if plan2, r, ok := e.mutate(rng, 6); ok {
				stageSwap(t, s, plan2, r, "width 1")
				plan = plan2
				return
			}
		}
	}
	migrate := func(dst *Pool) {
		t.Helper()
		fs := s.FaultState()
		const shed = 1
		fs.SetNodeShed(shed, true)
		ns, err := dst.AttachMigrated(s, Options{})
		if err != nil {
			t.Fatal(err)
		}
		s = ns
		if s.FaultState() != fs || !fs.Shed(shed) || s.Threads() != 1 {
			t.Fatalf("migration: fault state %p -> %p, shed bit %v, %d threads",
				fs, s.FaultState(), fs.Shed(shed), s.Threads())
		}
		fs.SetNodeShed(shed, false)
	}

	for i := 0; i < 3; i++ {
		cycle("walk")
	}
	if allocs := testing.AllocsPerRun(50, s.Execute); allocs != 0 {
		t.Fatalf("Execute allocates %v per cycle", allocs)
	}
	gen = s.topo.Load().gen.Load()
	edit()
	cycle("swap adopted by Execute")
	migrate(b)
	cycle("migrated")
	edit()
	migrate(a)
	cycle("migrated back, swap staged before the move")
}

// TestPoolWidthOneAdoptsSwapCarriedFromWiderPool: a swap staged on a
// session of a two-helper pool travels as it is through AttachMigrated
// to a helper-less pool, and the destination's first Execute builds its
// epoch for width 1 — no claim state — runs each node once in the new
// plan's topological order, continues the generation, and finds the shed
// and quarantine bits under the nodes' new IDs.
func TestPoolWidthOneAdoptsSwapCarriedFromWiderPool(t *testing.T) {
	wide, err := NewPool(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer wide.Close()
	narrow, err := NewPool(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer narrow.Close()

	rng := rand.New(rand.NewSource(11))
	e := newEditable(14, 0.2, rng)
	plan, err := e.g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	s, err := wide.Attach(plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.runAndCheck(t, s, plan, 3, "wide")

	plan2, r, ok := e.mutate(rng, 6)
	for !ok {
		plan2, r, ok = e.mutate(rng, 6)
	}
	var survivors []int32
	for oldID, newID := range r.OldToNew {
		if newID >= 0 {
			survivors = append(survivors, int32(oldID))
		}
	}
	shedOld, quarOld := survivors[0], survivors[len(survivors)-1]
	fs := s.FaultState()
	fs.SetNodeShed(shedOld, true)
	a := fs.arr.Load()
	a.updateBits(quarOld, stateQuarantined, 0)
	a.probeAt[quarOld].Store(1 << 40) // no probe lifts it during the test
	if err := s.StageSwap(Swap{Plan: plan2, OldToNew: r.OldToNew}); err != nil {
		t.Fatal(err)
	}
	sw := s.staged.Load()

	log := &orderLog{}
	ns, err := narrow.AttachMigrated(s, Options{Observer: log})
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	if got := ns.staged.Load(); got != sw {
		t.Fatalf("staged swap %p arrived as %p, want it carried as it is", sw, got)
	}
	if top := ns.topo.Load(); top.plan != plan || top.gen.Load() != 3 || top.claimed != nil {
		t.Fatalf("before adoption: epoch over the new plan %v, generation %d, %d claim stamps; want the old plan at 3 with none",
			top.plan == plan2, top.gen.Load(), len(top.claimed))
	}

	before := make([]int64, len(e.cells))
	for i, c := range e.cells {
		before[i] = c.count.Load()
	}
	ns.Execute()
	top := ns.topo.Load()
	if top.plan != plan2 || top.gen.Load() != 4 || ns.Threads() != 1 {
		t.Fatalf("after the first Execute: epoch over the new plan %v, generation %d, %d threads; want the new plan at 4 on 1",
			top.plan == plan2, top.gen.Load(), ns.Threads())
	}
	if top.pending != nil || top.claimed != nil || top.orders != nil || top.cursors != nil {
		t.Fatal("the adopted epoch holds claim state on a helper-less pool")
	}
	if fmt.Sprint(log.ids) != fmt.Sprint(plan2.Order) {
		t.Fatalf("ran %v, want plan.Order %v", log.ids, plan2.Order)
	}
	for _, w := range log.workers {
		if w != 0 {
			t.Fatalf("a node recorded on worker %d, want the caller 0", w)
		}
	}
	shedNew, quarNew := r.OldToNew[shedOld], r.OldToNew[quarOld]
	for i, c := range e.cells {
		want := int64(1)
		if int32(i) == shedNew || int32(i) == quarNew {
			want = 0 // shed or quarantined: the nil bypass skips the kernel
		}
		if got := c.count.Load() - before[i]; got != want {
			t.Fatalf("node %d (%s) ran %d times, want %d", i, plan2.Names[i], got, want)
		}
	}
	if ns.FaultState() != fs || fs.Plan() != plan2 {
		t.Fatal("the fault state was not carried and rebound to the new plan")
	}
	for i := int32(0); i < int32(plan2.Len()); i++ {
		if fs.Shed(i) != (i == shedNew) || fs.Quarantined(i) != (i == quarNew) {
			t.Fatalf("node %d: shed %v, quarantined %v; want the bits on %d and %d only",
				i, fs.Shed(i), fs.Quarantined(i), shedNew, quarNew)
		}
	}

	fs.SetNodeShed(shedNew, false)
	fs.arr.Load().updateBits(quarNew, 0, stateQuarantined)
	e.runAndCheck(t, ns, plan2, 2, "narrow, bits cleared")
	if g := ns.topo.Load().gen.Load(); g != 6 {
		t.Fatalf("generation %d after two more cycles, want 6", g)
	}
}
