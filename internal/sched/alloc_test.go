package sched

import (
	"fmt"
	"slices"
	"testing"

	"djstar/internal/graph"
)

// noopPlan builds a no-op graph for allocation measurement: the
// trace-recording RandomDAG nodes would panic on re-execution across
// cycles, and allocation measurement needs many cycles.
func noopPlan(t testing.TB, nodes int) *graph.Plan {
	t.Helper()
	g := graph.New()
	var prev int
	for i := 0; i < nodes; i++ {
		id := g.AddNode(fmt.Sprintf("n%d", i), graph.SectionDeckA, nil)
		if i > 0 && i%3 == 0 {
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

// TestExecuteNoAllocSteadyState is the package contract regression test:
// Execute must allocate zero bytes per cycle for EVERY strategy — the
// paper's engine calls it once per 2.9 ms audio packet, so any steady-
// state allocation eventually triggers GC pauses inside the deadline.
func TestExecuteNoAllocSteadyState(t *testing.T) {
	p := noopPlan(t, 67)
	for _, name := range AllStrategies {
		name := name
		t.Run(name, func(t *testing.T) {
			threads := 4
			if name == NameSequential {
				threads = 1
			}
			s, err := New(name, p, Options{Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			s.Execute() // warm up
			allocs := testing.AllocsPerRun(100, func() { s.Execute() })
			if allocs != 0 {
				t.Fatalf("%s: Execute allocates %v per cycle", name, allocs)
			}
		})
	}
}

// TestPoolExecuteNoAllocSteadyState extends the zero-allocation contract
// to shared-pool sessions: per-cycle Execute stays allocation-free even
// with pool workers helping and a second session attached.
func TestPoolExecuteNoAllocSteadyState(t *testing.T) {
	p := noopPlan(t, 67)
	pool, err := NewPool(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	s, err := pool.Attach(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	other, err := pool.Attach(noopPlan(t, 20), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	s.Execute() // warm up
	other.Execute()
	allocs := testing.AllocsPerRun(100, func() { s.Execute() })
	if allocs != 0 {
		t.Fatalf("pool: Execute allocates %v per cycle", allocs)
	}
}

// TestStageSwapRecordsOnly: staging a swap records the Swap and builds
// nothing plan-sized, on every executor — at most one allocation, the
// recorded Swap itself. AdoptStaged builds the epoch.
func TestStageSwapRecordsOnly(t *testing.T) {
	p, next := noopPlan(t, 67), noopPlan(t, 67)
	for _, name := range append(slices.Clone(AllStrategies), NamePool) {
		t.Run(name, func(t *testing.T) {
			s, err := New(name, p, Options{Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			s.Execute()
			allocs := testing.AllocsPerRun(50, func() {
				if err := s.StageSwap(Swap{Plan: next}); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 1 {
				t.Fatalf("%s: StageSwap allocates %v times, want at most the recorded Swap", name, allocs)
			}
			if !s.AdoptStaged() {
				t.Fatal("staged swap not adopted")
			}
			s.Execute()
		})
	}
}
