package sched

import (
	"runtime"
	"testing"
	"time"

	"djstar/internal/graph"
)

// slowChain is a plan that is one chain of n nodes, each slow enough
// (200 µs) that a worker waiting on the chain runs out of spin and parks.
func slowChain(t *testing.T, n int, tr *graph.ExecTrace) *graph.Plan {
	t.Helper()
	g := graph.New()
	prev := -1
	for i := 0; i < n; i++ {
		i := i
		id := g.AddNode("chain", graph.SectionDeckA, func() {
			deadline := time.Now().Add(200 * time.Microsecond)
			for time.Now().Before(deadline) {
				runtime.Gosched()
			}
			tr.Record(i)
		})
		if prev >= 0 {
			if err := g.AddEdge(prev, id); err != nil {
				t.Fatal(err)
			}
		}
		prev = id
	}
	p, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// executeWithin runs cycles of s on the chain, failing the test if one
// does not finish within limit: a lost wake-up leaves a parked worker
// asleep and Execute waiting on it for good.
func executeWithin(t *testing.T, s Scheduler, p *graph.Plan, tr *graph.ExecTrace, cycles int, limit time.Duration) {
	t.Helper()
	for cycle := 0; cycle < cycles; cycle++ {
		tr.Reset()
		done := make(chan struct{})
		go func() {
			s.Execute()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(limit):
			t.Fatalf("cycle %d: Execute did not finish within %v: a parked worker was never woken", cycle, limit)
		}
		if err := tr.Check(p); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
	}
}

// TestWorkStealParkPath forces the mid-cycle sleep path: a graph that is
// one long chain of slow nodes gives the three non-executing workers
// nothing to pop or steal for the whole cycle, so they exhaust their spin
// budget and park; the chain worker's completions and the cycle end must
// wake them (no deadlock, correct execution).
func TestWorkStealParkPath(t *testing.T) {
	const n = 48
	tr := graph.NewExecTrace(n)
	p := slowChain(t, n, tr)
	s, err := NewWorkSteal(p, Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	executeWithin(t, s, p, tr, 5, 30*time.Second)
	if s.Parks() == 0 {
		t.Log("note: no worker parked (host scheduling kept everyone busy); path not exercised")
	} else {
		t.Logf("parks=%d steals=%d", s.Parks(), s.Steals())
	}
}

// TestListParkWakeUp holds the list executors that park (sleep,
// sleepscan) to their wake-up. The chain is dealt round-robin, so every
// worker's next entry waits on another worker's node for 200 µs: each
// registers on it and parks, and only release's token wakes it. A
// release that loses the token fails here within seconds instead of
// hanging the package.
func TestListParkWakeUp(t *testing.T) {
	for _, name := range []string{NameSleep, NameSleepScan} {
		t.Run(name, func(t *testing.T) {
			const n = 24
			tr := graph.NewExecTrace(n)
			p := slowChain(t, n, tr)
			s, err := New(name, p, Options{Threads: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			executeWithin(t, s, p, tr, 5, 5*time.Second)
		})
	}
}

// TestWorkStealStealPath forces actual steals: all sources seeded on one
// worker via section affinity (every node in one section), so the other
// workers can only obtain work by stealing. Verify Steals() advances on
// multicore hosts; on any host, execution must stay correct.
func TestWorkStealStealPath(t *testing.T) {
	g := graph.New()
	const n = 64
	tr := graph.NewExecTrace(n)
	for i := 0; i < n; i++ {
		i := i
		g.AddNode("src", graph.SectionDeckA, func() {
			x := 1.0
			for j := 0; j < 2000; j++ {
				x = x*1.0000001 + 0.5
			}
			_ = x
			tr.Record(i)
		})
	}
	p, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWorkSteal(p, Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for cycle := 0; cycle < 20; cycle++ {
		tr.Reset()
		s.Execute()
		if err := tr.Check(p); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("steals=%d parks=%d (64 sources all seeded on one worker)", s.Steals(), s.Parks())
	if runtime.NumCPU() >= 4 && s.Steals() == 0 {
		t.Error("no steals despite single-worker seeding on a multicore host")
	}
}
