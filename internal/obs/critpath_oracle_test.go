package obs

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"djstar/internal/graph"
	"djstar/internal/synth"
)

// Oracle for the observed critical path: CriticalPath and PathStat.Bound,
// now served by the plan's forward sweep, are held to the reference
// below — the per-package sweep, kept verbatim (renamed) — on the
// standard plan, its fused plan, an edited plan and seeded random DAGs.

// refCriticalPath computes the longest weighted path through the plan with
// durUS (microseconds, indexed by node ID) as node weights. Zero-weight
// nodes are legal; dependencies still route the path through them.
func refCriticalPath(p *graph.Plan, durUS []float64) PathStat {
	n := p.Len()
	finish := make([]float64, n)
	via := make([]int32, n)
	var ps PathStat
	last := int32(-1)
	for _, id := range p.Order {
		via[id] = -1
		start := 0.0
		for _, pr := range p.PredsOf(id) {
			if finish[pr] > start {
				start = finish[pr]
				via[id] = pr
			}
		}
		finish[id] = start + durUS[id]
		ps.TotalWorkUS += durUS[id]
		if last < 0 || finish[id] > finish[last] {
			last = id
		}
	}
	if last >= 0 {
		ps.LengthUS = finish[last]
		for at := last; at >= 0; at = via[at] {
			ps.Nodes = append(ps.Nodes, at)
		}
		// Reverse into execution order.
		for i, j := 0, len(ps.Nodes)-1; i < j; i, j = i+1, j-1 {
			ps.Nodes[i], ps.Nodes[j] = ps.Nodes[j], ps.Nodes[i]
		}
		ps.Names = make([]string, len(ps.Nodes))
		for i, id := range ps.Nodes {
			ps.Names[i] = p.Names[id]
		}
	}
	if ps.LengthUS > 0 {
		ps.Parallelism = ps.TotalWorkUS / ps.LengthUS
	}
	return ps
}

// refBound returns the lower bound on the makespan achievable with the
// given thread count: max(critical path, total work / threads) — the
// RESCON-style resource-constrained bound.
func refBound(ps PathStat, threads int) float64 {
	if threads < 1 {
		threads = 1
	}
	b := ps.TotalWorkUS / float64(threads)
	if ps.LengthUS > b {
		b = ps.LengthUS
	}
	return b
}

// oraclePlans returns the oracle inputs with a per-node cost vector each:
// the standard 67-node plan and its fused plan under design costs, the
// plan with a three-unit live delay inserted on deck A, and 200 seeded
// random DAGs whose costs are small integers (ties and zeros included).
func oraclePlans(t *testing.T) (names []string, plans []*graph.Plan, costs [][]float64) {
	t.Helper()
	add := func(name string, p *graph.Plan, c []float64) {
		names, plans, costs = append(names, name), append(plans, p), append(costs, c)
	}
	design := func(p *graph.Plan) []float64 {
		c := make([]float64, p.Len())
		for i := range c {
			c[i] = p.Costs[i].MeanUS()
		}
		return c
	}
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
	fused, err := graph.Fuse(plan, design(plan), graph.FuseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	es, err := sess.BuildPatch(g, "insert-delay:A:3")
	if err != nil {
		t.Fatal(err)
	}
	_, edited, _, err := g.Apply(es)
	if err != nil {
		t.Fatal(err)
	}
	add("standard", plan, design(plan))
	add("fused", fused, design(fused))
	add("insert-delay:A:3", edited, design(edited))
	for seed := uint64(1); seed <= 200; seed++ {
		rg, _ := graph.RandomDAG(graph.RandomSpec{Nodes: 1 + int(seed%80), EdgeProb: 0.05 + float64(seed%6)*0.05, MaxDeps: int(seed % 4), Seed: seed})
		p, err := rg.Compile()
		if err != nil {
			t.Fatal(err)
		}
		rng := synth.NewRand(seed)
		c := make([]float64, p.Len())
		for i := range c {
			c[i] = float64(rng.Intn(10))
		}
		add(fmt.Sprintf("random-%d", seed), p, c)
	}
	return names, plans, costs
}

// TestOracleCriticalPath: the same nodes, length, total work and
// parallelism as the reference, and the same bounds at 0..4 threads.
func TestOracleCriticalPath(t *testing.T) {
	names, plans, costs := oraclePlans(t)
	for i, p := range plans {
		got, want := CriticalPath(p, costs[i]), refCriticalPath(p, costs[i])
		if !reflect.DeepEqual(got, want) ||
			math.Float64bits(got.LengthUS) != math.Float64bits(want.LengthUS) ||
			math.Float64bits(got.TotalWorkUS) != math.Float64bits(want.TotalWorkUS) {
			t.Errorf("%s: %+v, reference %+v", names[i], got, want)
		}
		for threads := 0; threads <= 4; threads++ {
			if g, w := got.Bound(threads), refBound(want, threads); math.Float64bits(g) != math.Float64bits(w) {
				t.Errorf("%s: Bound(%d) = %v, reference %v", names[i], threads, g, w)
			}
		}
	}
}
