package admission

import (
	"fmt"
	"math/rand"
	"testing"

	"djstar/internal/graph"
	"djstar/internal/rescon"
)

// TestGrahamBoundMonotone pins down the structural property the edit
// gate relies on: adding nodes or edges to a DAG can only increase (or
// keep) the Graham bound — so a rejected edit cannot become admissible
// by adding MORE work. The strategy simulations are deliberately not
// covered: a round-robin assignment can shift favourably when the node
// order changes, which is exactly why the production bound takes
// max(Graham, Sim).
func TestGrahamBoundMonotone(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		n := 6 + rng.Intn(20)
		g := graph.New()
		costs := make([]float64, 0, n+1)
		for i := 0; i < n; i++ {
			g.AddNode(fmt.Sprintf("M%d", i), graph.SectionMaster, nil)
			costs = append(costs, 1+rng.Float64()*30)
		}
		for i := 1; i < n; i++ {
			if err := g.AddEdge(rng.Intn(i), i); err != nil {
				t.Fatal(err)
			}
		}
		bound := func(threads int) float64 {
			t.Helper()
			plan, err := g.Compile()
			if err != nil {
				t.Fatal(err)
			}
			m, err := rescon.FromPlan(plan, costs)
			if err != nil {
				t.Fatal(err)
			}
			return rescon.GrahamBound(m.TotalWork(), m.CriticalPathUS(), threads)
		}
		for _, threads := range []int{1, 2, 4} {
			before := bound(threads)

			// Added edge: work unchanged, critical path can only grow.
			from, to := rng.Intn(n-1), 0
			to = from + 1 + rng.Intn(n-1-from)
			if err := g.AddEdge(from, to); err != nil {
				t.Fatal(err)
			}
			afterEdge := bound(threads)
			if afterEdge < before-1e-9 {
				t.Fatalf("seed %d m=%d: bound shrank after added edge: %v -> %v", seed, threads, before, afterEdge)
			}

			// Added node: both work and (possibly) the critical path grow.
			id := g.AddNode("extra", graph.SectionMaster, nil)
			costs = append(costs, 5+rng.Float64()*20)
			if err := g.AddEdge(rng.Intn(id), id); err != nil {
				t.Fatal(err)
			}
			afterNode := bound(threads)
			if afterNode < afterEdge-1e-9 {
				t.Fatalf("seed %d m=%d: bound shrank after added node: %v -> %v", seed, threads, afterEdge, afterNode)
			}
			n = id + 1
		}
	}
}
