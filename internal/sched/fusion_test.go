package sched

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"djstar/internal/graph"
)

// Fuse's output is an ordinary plan: a unit is one node, whose Run calls
// its members' Run back to back. These tests run it on every executor as
// one more input shape; graph.TestFuseRunsEveryBaseNodeOnce holds the
// rewrite itself.

// fusePlan compiles g and fuses it by shape (unit costs, the automatic
// cap), returning the base plan and the fused one.
func fusePlan(t *testing.T, g *graph.Graph) (*graph.Plan, *graph.Plan) {
	t.Helper()
	p, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := graph.Fuse(p, nil, graph.FuseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return p, fp
}

// TestFusionPropertyAllStrategies: over seeded random DAGs and every
// strategy, executing the fused plan runs every base node exactly once
// per cycle after all of its base predecessors (ExecTrace.Check against
// the base plan), and reports every unit to the observer once, in an
// order that respects the fused plan's edges.
func TestFusionPropertyAllStrategies(t *testing.T) {
	for _, seed := range []uint64{2, 4, 8} {
		// MaxDeps 1 keeps indegrees low enough that the random DAGs
		// reliably contain fusable chains (several multi-member units).
		g, tr := graph.RandomDAG(graph.RandomSpec{Nodes: 24, EdgeProb: 0.1, MaxDeps: 1, Seed: seed})
		base, fp := fusePlan(t, g)
		if fp.Len() == base.Len() {
			t.Fatalf("seed %d: no multi-member units — property test would be vacuous", seed)
		}
		for _, name := range AllStrategies {
			t.Run(fmt.Sprintf("seed%d/%s", seed, name), func(t *testing.T) {
				threads := 3
				if name == NameSequential {
					threads = 1
				}
				trace := newRecorder(fp.Len())
				s, err := New(name, fp, Options{Threads: threads, Observer: trace})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				for cycle := 0; cycle < 6; cycle++ {
					tr.Reset()
					s.Execute()
					if err := tr.Check(base); err != nil {
						t.Fatalf("cycle %d: %v", cycle, err)
					}
					ev := trace.Events()
					for v := 0; v < fp.Len(); v++ {
						if ev[v].Worker < 0 {
							t.Fatalf("cycle %d: unit %d unobserved", cycle, v)
						}
						if ev[v].End < ev[v].Start {
							t.Fatalf("cycle %d: unit %d window inverted", cycle, v)
						}
						for _, u := range fp.PredsOf(int32(v)) {
							if err := edgeOrdered(ev, u, int32(v)); err != nil {
								t.Fatalf("cycle %d: %v", cycle, err)
							}
						}
					}
				}
			})
		}
	}
}

// fusionVictim is the chain node that panics while armed. Fusion by
// shape pairs the five-node chain as n0+n1, n2+n3, n4, so the victim is
// the inner member of unit fusionVictimUnit.
const (
	fusionVictim     = 3
	fusionVictimUnit = 1
)

// fusionFaultChain builds a five-node linear chain whose node
// fusionVictim panics while armed.
func fusionFaultChain(t *testing.T) (*graph.Graph, []*atomic.Int64, *atomic.Int32) {
	t.Helper()
	const n = 5
	g := graph.New()
	runs := make([]*atomic.Int64, n)
	armed := &atomic.Int32{}
	prev := -1
	for i := 0; i < n; i++ {
		runs[i] = &atomic.Int64{}
		run := func() { runs[i].Add(1) }
		if i == fusionVictim {
			run = func() {
				if armed.Load() > 0 {
					armed.Add(-1)
					panic("injected: fused inner member down")
				}
				runs[i].Add(1)
			}
		}
		id := g.AddNode(fmt.Sprintf("n%d", i), graph.SectionDeckA, run)
		if prev >= 0 {
			if err := g.AddEdge(prev, id); err != nil {
				t.Fatal(err)
			}
		}
		prev = id
	}
	return g, runs, armed
}

// faultOutcome is what runFaultPhases observed: fault stats, whether the
// faulting node was quarantined mid-run, handler records and per-node
// run counts.
type faultOutcome struct {
	stats       FaultStats
	quarantined bool
	records     int
	runs        []int64
}

// runFaultPhases drives a scheduler through the canonical fault
// lifecycle (clean, faulting to quarantine, quarantined, probe restore,
// clean); node is the plan node that faults.
func runFaultPhases(t *testing.T, s Scheduler, node int32, runs []*atomic.Int64, armed *atomic.Int32) faultOutcome {
	t.Helper()
	const probeEvery = 6
	s.FaultState().SetFaultPolicy(FaultPolicy{ProbeEvery: probeEvery})
	var mu sync.Mutex
	records := 0
	s.FaultState().SetFaultHandler(func(r FaultRecord) {
		mu.Lock()
		records++
		mu.Unlock()
		if r.Node != node {
			t.Errorf("fault record names node %d, want %d", r.Node, node)
		}
	})

	s.Execute()
	s.Execute()
	armed.Store(QuarantineAfter)
	for i := 0; i < QuarantineAfter; i++ {
		s.Execute()
	}
	out := faultOutcome{quarantined: s.FaultState().Quarantined(node)}
	for i := 0; i < probeEvery+1; i++ {
		s.Execute()
	}
	s.Execute()
	out.stats = s.FaultState().Faults()
	out.runs = make([]int64, len(runs))
	for i, r := range runs {
		out.runs[i] = r.Load()
	}
	mu.Lock()
	out.records = records
	mu.Unlock()
	return out
}

// TestFusionQuarantineParity: a fused unit whose inner member panics
// goes through the same fault lifecycle as that member does in the
// unfused plan — same fault counts, quarantine trip, probe restoration
// and handler records — as one node: the records and the quarantine
// bit name the unit, and while it is quarantined none of its members
// runs. Every node outside the unit runs as often as unfused.
func TestFusionQuarantineParity(t *testing.T) {
	for _, name := range AllStrategies {
		t.Run(name, func(t *testing.T) {
			threads := 3
			if name == NameSequential {
				threads = 1
			}
			outcomes := make([]faultOutcome, 2)
			for variant := 0; variant < 2; variant++ {
				g, runs, armed := fusionFaultChain(t)
				base, fp := fusePlan(t, g)
				plan, node := base, int32(fusionVictim)
				if variant == 1 {
					plan, node = fp, fusionVictimUnit
					if want := "n2+n3"; fp.Names[node] != want {
						t.Fatalf("unit %d is %q, want %q", node, fp.Names[node], want)
					}
				}
				s, err := New(name, plan, Options{Threads: min(threads, plan.Len())})
				if err != nil {
					t.Fatal(err)
				}
				outcomes[variant] = runFaultPhases(t, s, node, runs, armed)
				s.Close()
			}
			un, fu := outcomes[0], outcomes[1]
			if un.stats != fu.stats {
				t.Fatalf("fault stats diverge: unfused %+v, fused %+v", un.stats, fu.stats)
			}
			if un.quarantined != fu.quarantined || !fu.quarantined {
				t.Fatalf("quarantine diverges: unfused %v, fused %v", un.quarantined, fu.quarantined)
			}
			if un.records != fu.records {
				t.Fatalf("handler records diverge: unfused %d, fused %d", un.records, fu.records)
			}
			const head = fusionVictim - 1 // the victim's unit-mate
			for i := range un.runs {
				if i != head && un.runs[i] != fu.runs[i] {
					t.Fatalf("node %d run counts diverge: unfused %d, fused %d", i, un.runs[i], fu.runs[i])
				}
			}
			if want := fu.runs[fusionVictim] + fu.stats.Recovered; fu.runs[head] != want {
				t.Fatalf("unit-mate ran %d times, want %d: the victim's successes plus its faults, none while quarantined", fu.runs[head], want)
			}
		})
	}
}

// TestFusedExecuteNoAllocSteadyState: a fused plan executes without
// allocating on every strategy and on a pool session.
func TestFusedExecuteNoAllocSteadyState(t *testing.T) {
	p := noopPlan(t, 67)
	fp, err := graph.Fuse(p, nil, graph.FuseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fp.Len() == p.Len() {
		t.Fatal("noop plan produced no fused units")
	}
	for _, name := range AllStrategies {
		t.Run(name, func(t *testing.T) {
			threads := min(4, fp.Len())
			if name == NameSequential {
				threads = 1
			}
			s, err := New(name, fp, Options{Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			s.Execute()
			if allocs := testing.AllocsPerRun(100, func() { s.Execute() }); allocs != 0 {
				t.Fatalf("%s: fused Execute allocates %v per cycle", name, allocs)
			}
		})
	}
	t.Run(NamePool, func(t *testing.T) {
		pool, err := NewPool(2, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()
		s, err := pool.Attach(fp, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		s.Execute()
		if allocs := testing.AllocsPerRun(100, func() { s.Execute() }); allocs != 0 {
			t.Fatalf("pool: fused Execute allocates %v per cycle", allocs)
		}
	})
}
