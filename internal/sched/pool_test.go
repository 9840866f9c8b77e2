package sched

import (
	"fmt"
	"sync"
	"testing"

	"djstar/internal/graph"
)

func TestPoolValidation(t *testing.T) {
	if _, err := NewPool(-1, 4); err == nil {
		t.Fatal("negative workers accepted")
	}
	if _, err := NewPool(2, 0); err == nil {
		t.Fatal("zero capacity accepted")
	}
	p, err := NewPool(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Attach(nil, Options{}); err == nil {
		t.Fatal("nil plan accepted")
	}
	g, _ := graph.RandomDAG(graph.RandomSpec{Nodes: 5, EdgeProb: 0.2, Seed: 1})
	plan, _ := g.Compile()
	s, err := p.Attach(plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Attach(plan, Options{}); err == nil {
		t.Fatal("attach beyond capacity accepted")
	}
	s.Close()
	// Closing frees the slot for a new session.
	s2, err := p.Attach(plan, Options{})
	if err != nil {
		t.Fatalf("re-attach after Close: %v", err)
	}
	s2.Close()
}

func TestPoolSessionSchedulerContract(t *testing.T) {
	p, err := NewPool(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	g, tr := graph.RandomDAG(graph.RandomSpec{Nodes: 30, EdgeProb: 0.2, Seed: 11})
	plan, _ := g.Compile()
	s, err := p.Attach(plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Name() != NamePool {
		t.Fatalf("Name = %q", s.Name())
	}
	if s.Threads() != 4 {
		t.Fatalf("Threads = %d, want workers+1 = 4", s.Threads())
	}
	for cycle := 0; cycle < 200; cycle++ {
		tr.Reset()
		s.Execute()
		if err := tr.Check(plan); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
	}
}

func TestPoolSessionTracer(t *testing.T) {
	p, err := NewPool(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	cfg := graph.DefaultConfig()
	cfg.TrackBars = 2
	sess, g, err := graph.BuildDJStar(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan, _ := g.Compile()
	tr := newRecorder(plan.Len())
	s, err := p.Attach(plan, Options{Observer: tr})
	if err != nil {
		t.Fatal(err)
	}
	sess.Prepare()
	s.Execute()
	for i, e := range tr.Events() {
		if e.Worker < 0 {
			t.Fatalf("node %d untraced", i)
		}
		if int(e.Worker) >= s.Threads() {
			t.Fatalf("node %d traced on worker %d of %d", i, e.Worker, s.Threads())
		}
	}
	if tr.Makespan() <= 0 {
		t.Fatal("no makespan")
	}
	// The observer is fixed at attach time; a fresh session on the freed
	// slot runs unobserved.
	s.Close()
	s2, err := p.Attach(plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	sess.Prepare()
	s2.Execute()
}

// TestPoolConcurrentSessions is the acceptance test for shared-pool
// scheduling: several sessions execute concurrently over one worker
// pool, each from its own goroutine, with per-session dependency
// correctness verified every cycle. Run under -race this also checks the
// cross-session memory-model argument.
func TestPoolConcurrentSessions(t *testing.T) {
	const sessions = 5
	const cycles = 150
	p, err := NewPool(4, sessions)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		g, tr := graph.RandomDAG(graph.RandomSpec{
			Nodes:    20 + 9*i,
			EdgeProb: 0.15,
			Seed:     uint64(100 + i),
		})
		plan, err := g.Compile()
		if err != nil {
			t.Fatal(err)
		}
		s, err := p.Attach(plan, Options{})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, s *PoolSession, plan *graph.Plan, tr *graph.ExecTrace) {
			defer wg.Done()
			defer s.Close()
			for c := 0; c < cycles; c++ {
				tr.Reset()
				s.Execute()
				if err := tr.Check(plan); err != nil {
					errs <- fmt.Errorf("session %d cycle %d: %v", i, c, err)
					return
				}
			}
		}(i, s, plan, tr)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPoolZeroWorkers: a pool without helper workers still executes
// correctly — every session walks its plan on its caller.
func TestPoolZeroWorkers(t *testing.T) {
	p, err := NewPool(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	g, tr := graph.RandomDAG(graph.RandomSpec{Nodes: 25, EdgeProb: 0.2, Seed: 21})
	plan, _ := g.Compile()
	s, err := p.Attach(plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Threads() != 1 {
		t.Fatalf("Threads = %d, want 1", s.Threads())
	}
	for cycle := 0; cycle < 50; cycle++ {
		tr.Reset()
		s.Execute()
		if err := tr.Check(plan); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
	}
}

// TestPoolMatchesSequentialAudio verifies dataflow determinism in shared
// pool mode on the real 67-node graph: master output matches the
// sequential execution bit for bit, while three other sessions churn on
// the same pool — one with three helpers, and a helper-less one, whose
// sessions walk plan.Order on their callers.
func TestPoolMatchesSequentialAudio(t *testing.T) {
	const cycles = 60

	run := func(build func(p *graph.Plan) (Scheduler, error)) []float64 {
		cfg := graph.DefaultConfig()
		cfg.TrackBars = 2
		sess, g, err := graph.BuildDJStar(cfg)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := g.Compile()
		if err != nil {
			t.Fatal(err)
		}
		s, err := build(plan)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var sums []float64
		for c := 0; c < cycles; c++ {
			sess.Prepare()
			s.Execute()
			sum := 0.0
			for _, v := range sess.MasterOut().L {
				sum += v
			}
			sums = append(sums, sum)
		}
		return sums
	}

	ref := run(func(p *graph.Plan) (Scheduler, error) { return New(NameSequential, p, Options{}) })

	for _, helpers := range []int{3, 0} {
		pool, err := NewPool(helpers, 4)
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()

		// Background churn: three noisy sessions executing concurrently.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < 3; i++ {
			g, tr := graph.RandomDAG(graph.RandomSpec{Nodes: 30, EdgeProb: 0.1, Seed: uint64(31 + i)})
			plan, err := g.Compile()
			if err != nil {
				t.Fatal(err)
			}
			s, err := pool.Attach(plan, Options{})
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(s *PoolSession, tr *graph.ExecTrace) {
				defer wg.Done()
				defer s.Close()
				for {
					select {
					case <-stop:
						return
					default:
						tr.Reset()
						s.Execute()
					}
				}
			}(s, tr)
		}

		got := run(func(p *graph.Plan) (Scheduler, error) { return pool.Attach(p, Options{}) })
		close(stop)
		wg.Wait()

		for c := range ref {
			if got[c] != ref[c] {
				t.Fatalf("%d helpers, cycle %d: pool output %v differs from sequential %v", helpers, c, got[c], ref[c])
			}
		}
	}
}
