//go:build perf

package obs

import (
	"fmt"
	"testing"
	"time"

	"djstar/internal/graph"
	"djstar/internal/sched"
)

// spinPlan builds a layered DAG (width parallel chains joined at a sink)
// whose nodes busy-spin for spinUS microseconds — real work with a known
// cost, so schedule-theory invariants can be checked against wall time.
func spinPlan(t testing.TB, width, depth int, spinUS int) *graph.Plan {
	t.Helper()
	spin := func() {
		end := time.Now().Add(time.Duration(spinUS) * time.Microsecond)
		for time.Now().Before(end) {
		}
	}
	g := graph.New()
	src := g.AddNode("src", graph.SectionDeckA, spin)
	var heads []int
	for w := 0; w < width; w++ {
		prev := src
		for d := 0; d < depth; d++ {
			id := g.AddNode(fmt.Sprintf("c%dn%d", w, d), graph.DeckSection(w), spin)
			if err := g.AddEdge(prev, id); err != nil {
				t.Fatal(err)
			}
			prev = id
		}
		heads = append(heads, prev)
	}
	sink := g.AddNode("sink", graph.SectionMaster, spin)
	for _, h := range heads {
		if err := g.AddEdge(h, sink); err != nil {
			t.Fatal(err)
		}
	}
	p, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCriticalPathBoundsMakespan is the schedule-theory property test:
// for every parallel strategy, on every sampled cycle, the critical path
// under that cycle's MEASURED node durations is a lower bound on the
// cycle's makespan, and the makespan never exceeds the serialized sum of
// node durations plus a scheduling-overhead margin.
func TestCriticalPathBoundsMakespan(t *testing.T) {
	// 3 chains × 3 nodes × 100 µs + src + sink ≈ 1.1 ms of work per
	// cycle — large against wake-up and observer costs.
	p := spinPlan(t, 3, 3, 100)
	for _, name := range []string{
		sched.NameBusyWait, sched.NameSleep, sched.NameWorkSteal,
		sched.NameSleepScan, sched.NameStatic,
	} {
		t.Run(name, func(t *testing.T) {
			col := NewCollector(p, Config{Workers: 2, TraceEvery: 1, TraceRing: 1})
			s, err := sched.New(name, p, sched.Options{Threads: 2, Observer: col})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			durUS := make([]float64, p.Len())
			var ct CycleTrace
			for cyc := 0; cyc < 10; cyc++ {
				s.Execute()
				if !col.LatestTrace(&ct) {
					t.Fatal("no trace")
				}
				sum := 0.0
				for id := range durUS {
					if ct.Worker[id] < 0 {
						t.Fatalf("cycle %d: node %d unobserved", cyc, id)
					}
					durUS[id] = float64(ct.EndNS[id]-ct.StartNS[id]) / 1e3
					sum += durUS[id]
				}
				makespan := float64(ct.MakespanNS()) / 1e3
				cp := CriticalPath(p, durUS)
				// Lower bound: a dependency chain cannot finish faster
				// than the sum of its own nodes. Exact, no tolerance —
				// start/end stamps come from one monotonic clock and every
				// node starts after its predecessors end.
				if cp.LengthUS > makespan+1e-9 {
					t.Fatalf("cycle %d: critical path %.1f µs > makespan %.1f µs",
						cyc, cp.LengthUS, makespan)
				}
				// Upper bound: even serialized, the work sums to `sum`.
				// This is a sanity check (catches unit mix-ups), so the
				// margin is generous: sleepers pay a wake-up per handoff
				// and the race detector multiplies every gap.
				if makespan > sum+5000 {
					t.Fatalf("cycle %d: makespan %.1f µs > serialized sum %.1f µs + margin",
						cyc, makespan, sum)
				}
				// The RESCON-style bound is itself below the makespan.
				if b := cp.Bound(s.Threads()); b > makespan+1e-9 {
					t.Fatalf("cycle %d: Bound(%d) %.1f µs > makespan %.1f µs",
						cyc, s.Threads(), b, makespan)
				}
			}
		})
	}
}
