package sched

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"djstar/internal/graph"
)

// fusePlan compiles g and fuses it shape-only (unit costs, uncapped) so
// chains collapse regardless of cost — the adversarial setting for the
// scheduler, maximizing multi-member units.
func fusePlan(t *testing.T, g *graph.Graph) (*graph.Plan, *graph.Plan) {
	t.Helper()
	p, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := graph.Fuse(p, nil, graph.FuseOptions{MaxCostUS: 1e12})
	if err != nil {
		t.Fatal(err)
	}
	return p, fp
}

// TestFusionPropertyAllStrategies is the fusion correctness property
// test: over seeded random DAGs and every strategy, executing the FUSED
// plan must (a) run every ORIGINAL node exactly once per cycle, (b)
// respect every original edge's happens-before, and (c) report every
// original node to the observer with a consistent window. (a) and (b)
// are exactly ExecTrace.Check against the base plan; (c) uses a recorder
// sized for the base plan, which fused execution records into per
// member.
func TestFusionPropertyAllStrategies(t *testing.T) {
	for _, seed := range []uint64{2, 4, 8} {
		// MaxDeps 1 keeps indegrees low enough that the random DAGs
		// reliably contain fusable chains (several multi-member units).
		g, tr := graph.RandomDAG(graph.RandomSpec{Nodes: 24, EdgeProb: 0.1, MaxDeps: 1, Seed: seed})
		base, fp := fusePlan(t, g)
		if fp.FusedUnits() == 0 {
			t.Fatalf("seed %d: no multi-member units — property test would be vacuous", seed)
		}
		for _, name := range AllStrategies {
			t.Run(fmt.Sprintf("seed%d/%s", seed, name), func(t *testing.T) {
				threads := 3
				if name == NameSequential {
					threads = 1
				}
				trace := newRecorder(fp.BaseLen())
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
					for i := 0; i < base.Len(); i++ {
						if ev[i].Worker < 0 {
							t.Fatalf("cycle %d: base node %d unobserved", cycle, i)
						}
						if ev[i].End < ev[i].Start {
							t.Fatalf("cycle %d: node %d window inverted", cycle, i)
						}
					}
					for v := 0; v < base.Len(); v++ {
						for _, u := range base.PredsOf(int32(v)) {
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

// fusionFaultChain builds a five-node linear chain whose middle node
// panics while armed. Shape-only fusion collapses it into one
// multi-member unit, so the victim is an INNER member — the hard case
// for panic isolation and quarantine on fused plans.
func fusionFaultChain(t *testing.T) (*graph.Graph, []*atomic.Int64, *atomic.Int32) {
	t.Helper()
	const n = 5
	g := graph.New()
	runs := make([]*atomic.Int64, n)
	armed := &atomic.Int32{}
	prev := -1
	for i := 0; i < n; i++ {
		i := i
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

const fusionVictim = 2

// faultPhases drives a scheduler through the canonical fault lifecycle
// (clean, faulting to quarantine, quarantined, probe restore, clean) and
// returns the observable outcomes: fault stats, whether the victim was
// quarantined mid-run, and per-node run counts.
type faultOutcome struct {
	stats       FaultStats
	quarantined bool
	records     int
	runs        []int64
}

func runFaultPhases(t *testing.T, s Scheduler, runs []*atomic.Int64, armed *atomic.Int32) faultOutcome {
	t.Helper()
	const probeEvery = 6
	s.FaultState().SetFaultPolicy(FaultPolicy{ProbeEvery: probeEvery})
	var mu sync.Mutex
	records := 0
	s.FaultState().SetFaultHandler(func(r FaultRecord) {
		mu.Lock()
		records++
		mu.Unlock()
		if r.Node != fusionVictim {
			t.Errorf("fault record names node %d, want %d", r.Node, fusionVictim)
		}
	})

	s.Execute()
	s.Execute()
	armed.Store(QuarantineAfter)
	for i := 0; i < QuarantineAfter; i++ {
		s.Execute()
	}
	out := faultOutcome{quarantined: s.FaultState().Quarantined(fusionVictim)}
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

// TestFusionQuarantineParity: an inner member of a fused chain panicking
// must behave EXACTLY like the same node in the unfused plan — same
// fault counts, same quarantine trip, same probe restoration, same
// handler records, and the same run counts for every healthy node.
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
				plan := base
				if variant == 1 {
					plan = fp
					if fp.Len() != 1 || len(fp.MembersOf(0)) != base.Len() {
						t.Fatalf("chain did not fuse into one unit: %d units", fp.Len())
					}
				}
				s, err := New(name, plan, Options{Threads: min(threads, plan.Len())})
				if err != nil {
					t.Fatal(err)
				}
				outcomes[variant] = runFaultPhases(t, s, runs, armed)
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
			for i := range un.runs {
				if un.runs[i] != fu.runs[i] {
					t.Fatalf("node %d run counts diverge: unfused %d, fused %d", i, un.runs[i], fu.runs[i])
				}
			}
		})
	}
}

// TestFusedExecuteNoAllocSteadyState extends the package's zero-alloc
// contract to fused plans on every strategy and on a pool session.
func TestFusedExecuteNoAllocSteadyState(t *testing.T) {
	p := noopPlan(t, 67)
	fp, err := graph.Fuse(p, nil, graph.FuseOptions{MaxCostUS: 1e12})
	if err != nil {
		t.Fatal(err)
	}
	if fp.FusedUnits() == 0 {
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
