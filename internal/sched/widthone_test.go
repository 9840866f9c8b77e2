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
				stageSwap(t, s, plan2, r, false, "width 1")
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
