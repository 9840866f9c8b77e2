package obs

import (
	"fmt"
	"sync"
	"testing"

	"djstar/internal/graph"
	"djstar/internal/sched"
	"djstar/internal/synth"
)

// randomPlan compiles a reproducible random DAG whose nodes are safe to
// re-execute across cycles (graph.RandomDAG's nodes panic on re-run —
// they exist for single-cycle exactly-once property tests).
func randomPlan(t testing.TB, nodes int, edgeProb float64, seed uint64) *graph.Plan {
	t.Helper()
	rng := synth.NewRand(seed)
	g := graph.New()
	for i := 0; i < nodes; i++ {
		g.AddNode(fmt.Sprintf("n%d", i), graph.DeckSection(i%4), func() {})
	}
	for to := 1; to < nodes; to++ {
		for from := 0; from < to; from++ {
			if rng.Float64() < edgeProb {
				if err := g.AddEdge(from, to); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	p, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPoolShardMergeRace exercises the collector's shard-merge path under
// the shared worker pool with three concurrently executing sessions, each
// with its own collector, while readers poll stats and traces — the
// -race acceptance test for the one-writer-per-shard design.
func TestPoolShardMergeRace(t *testing.T) {
	const sessions = 3
	const cycles = 120
	pool, err := sched.NewPool(3, sessions)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	type bundle struct {
		s   *sched.PoolSession
		col *Collector
		p   *graph.Plan
	}
	var bs []bundle
	for i := 0; i < sessions; i++ {
		p := randomPlan(t, 20+7*i, 0.15, uint64(50+i))
		// Shards = pool workers + the session caller.
		col := NewCollector(p, Config{Workers: pool.Workers() + 1, TraceEvery: 4, TraceRing: 4})
		s, err := pool.Attach(p, sched.Options{Observer: col})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		bs = append(bs, bundle{s, col, p})
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Readers hammer the snapshot paths while the sessions run.
	for i := range bs {
		b := bs[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = b.col.NodeStats()
					_ = b.col.NodeMeansUS()
					_ = b.col.Traces()
				}
			}
		}()
	}
	var execWG sync.WaitGroup
	for i := range bs {
		b := bs[i]
		execWG.Add(1)
		go func() {
			defer execWG.Done()
			for c := 0; c < cycles; c++ {
				b.s.Execute()
			}
		}()
	}
	execWG.Wait()
	close(stop)
	wg.Wait()

	for i, b := range bs {
		if got := b.col.Cycles(); got != cycles {
			t.Fatalf("session %d merged %d cycles, want %d", i, got, cycles)
		}
		for _, st := range b.col.NodeStats() {
			if st.Count != cycles {
				t.Fatalf("session %d node %s count = %d, want %d", i, st.Name, st.Count, cycles)
			}
		}
		// Every 4th cycle sampled; the 4-deep ring keeps the newest four.
		traces := b.col.Traces()
		if len(traces) != 4 || traces[3].Cycle != cycles {
			t.Fatalf("session %d kept %d traces, newest from cycle %d; want 4, newest %d",
				i, len(traces), traces[len(traces)-1].Cycle, cycles)
		}
	}
}
