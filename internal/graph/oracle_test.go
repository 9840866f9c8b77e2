package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"djstar/internal/synth"
)

// Oracle for the plan's work model: ranks, rank order, successor order
// and fusion are held bit-identical to the reference implementations
// below — the pre-sweep code, kept verbatim (renamed) — on the standard
// plan, its fused plan, an edited plan and seeded random DAGs.

// refComputeRanks is the reference computeRanks.
func refComputeRanks(p *Plan, costUS []float64) {
	n := p.Len()
	p.Rank = make([]float64, n)
	cost := func(id int32) float64 {
		if costUS == nil {
			return 1
		}
		return costUS[id]
	}
	// Order is topological, so a reverse sweep sees all successors first.
	for i := n - 1; i >= 0; i-- {
		id := p.Order[i]
		best := 0.0
		for _, s := range p.SuccsOf(id) {
			if p.Rank[s] > best {
				best = p.Rank[s]
			}
		}
		p.Rank[id] = cost(id) + best
	}

	posOf := make([]int32, n)
	for pos, id := range p.Order {
		posOf[id] = int32(pos)
	}
	p.RankOrder = make([]int32, n)
	for i := range p.RankOrder {
		p.RankOrder[i] = int32(i)
	}
	sort.SliceStable(p.RankOrder, func(a, b int) bool {
		x, y := p.RankOrder[a], p.RankOrder[b]
		if p.Rank[x] != p.Rank[y] {
			return p.Rank[x] > p.Rank[y]
		}
		return posOf[x] < posOf[y]
	})
	for id := int32(0); id < int32(n); id++ {
		seg := p.SuccList[p.SuccIdx[id]:p.SuccIdx[id+1]]
		sort.SliceStable(seg, func(a, b int) bool {
			return p.Rank[seg[a]] > p.Rank[seg[b]]
		})
	}
}

// refFuse is the reference Fuse. It also returns the base node IDs each
// unit runs, in order.
func refFuse(p *Plan, costUS []float64) (*Plan, [][]int32, error) {
	if p == nil || p.Len() == 0 {
		return nil, nil, errors.New("graph: fuse of empty plan")
	}
	n := p.Len()
	if costUS != nil && len(costUS) != n {
		return nil, nil, fmt.Errorf("graph: fuse cost table has %d entries for %d nodes", len(costUS), n)
	}
	cost := func(id int32) float64 {
		if costUS == nil {
			return 1
		}
		return costUS[id]
	}

	// Cost-weighted critical path (longest path by summed cost) and the
	// most expensive single node, via a reverse topological sweep.
	down := make([]float64, n)
	maxNode := 0.0
	for i := n - 1; i >= 0; i-- {
		id := p.Order[i]
		best := 0.0
		for _, s := range p.SuccsOf(id) {
			if down[s] > best {
				best = down[s]
			}
		}
		down[id] = cost(id) + best
		if c := cost(id); c > maxNode {
			maxNode = c
		}
	}
	cpUS := 0.0
	for _, d := range down {
		if d > cpUS {
			cpUS = d
		}
	}
	maxCost := cpUS / 4
	if floor := 2 * maxNode; maxCost < floor {
		maxCost = floor
	}

	// Greedy chain extraction in queue order: each unassigned node heads
	// a unit, then the unit swallows its successor while the link is a
	// pure chain hop (single succ, single pred, same kind) and the caps
	// allow. Heads are visited topologically, so a swallowed node is
	// always claimed before its own Order slot comes up.
	assigned := make([]bool, n)
	var chains [][]int32
	memberOf := make([]int32, n)
	for _, head := range p.Order {
		if assigned[head] {
			continue
		}
		chain := []int32{head}
		assigned[head] = true
		sum := cost(head)
		tail := head
		for len(chain) < fuseMaxLen {
			succs := p.SuccsOf(tail)
			if len(succs) != 1 {
				break
			}
			next := succs[0]
			if assigned[next] || len(p.PredsOf(next)) != 1 || p.Kinds[next] != p.Kinds[head] {
				break
			}
			if sum+cost(next) > maxCost {
				break
			}
			chain = append(chain, next)
			assigned[next] = true
			sum += cost(next)
			tail = next
		}
		for _, m := range chain {
			memberOf[m] = int32(len(chains))
		}
		chains = append(chains, chain)
	}

	// Build the contracted graph. Contracting chains whose interior nodes
	// have no other edges cannot create a cycle (any fused edge lifts a
	// base path), so Compile's cycle check is a pure sanity net.
	super := New()
	for _, chain := range chains {
		head := chain[0]
		name := p.Names[head]
		if len(chain) > 1 {
			parts := make([]string, len(chain))
			for i, m := range chain {
				parts[i] = p.Names[m]
			}
			name = strings.Join(parts, "+")
		}
		members := chain
		sid := super.AddNode(name, p.Sections[head], func() {
			for _, m := range members {
				p.Run[m]()
			}
		})
		super.Node(sid).Kind = p.Kinds[head]
	}
	for v := int32(0); v < int32(n); v++ {
		for _, u := range p.PredsOf(v) {
			if su, sv := memberOf[u], memberOf[v]; su != sv {
				if err := super.AddEdge(int(su), int(sv)); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	fp, err := super.Compile()
	if err != nil {
		return nil, nil, err
	}

	// Re-rank the contracted plan with real unit costs (sum of members)
	// so RankOrder is critical-path-first under the supplied estimates.
	unitCost := make([]float64, len(chains))
	for i, chain := range chains {
		for _, m := range chain {
			unitCost[i] += cost(m)
		}
	}
	refComputeRanks(fp, unitCost)
	return fp, chains, nil
}

// oracleGraph is one oracle input: a graph, its compiled plan and a
// per-node cost vector in µs.
type oracleGraph struct {
	name  string
	g     *Graph
	plan  *Plan
	costs []float64
}

// oracleGraphs returns the standard 67-node graph, the same graph with a
// three-unit live delay inserted on deck A, and 200 seeded random DAGs
// whose costs are small integers (ties and zeros included).
func oracleGraphs(t *testing.T) []oracleGraph {
	t.Helper()
	cfg := DefaultConfig()
	cfg.TrackBars = 2
	sess, g, err := BuildDJStar(cfg)
	if err != nil {
		t.Fatal(err)
	}
	es, err := sess.BuildPatch(g, "insert-delay:A:3")
	if err != nil {
		t.Fatal(err)
	}
	g2, _, _, err := g.Apply(es)
	if err != nil {
		t.Fatal(err)
	}
	var out []oracleGraph
	add := func(name string, g *Graph, costs func(p *Plan) []float64) {
		p, err := g.Compile()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, oracleGraph{name, g, p, costs(p)})
	}
	design := func(p *Plan) []float64 {
		c := make([]float64, p.Len())
		for i := range c {
			c[i] = p.Costs[i].MeanUS()
		}
		return c
	}
	add("standard", g, design)
	add("insert-delay:A:3", g2, design)
	for seed := uint64(1); seed <= 200; seed++ {
		rg, _ := RandomDAG(RandomSpec{Nodes: 1 + int(seed%80), EdgeProb: 0.05 + float64(seed%6)*0.05, MaxDeps: int(seed % 4), Seed: seed})
		rng := synth.NewRand(seed)
		add(fmt.Sprintf("random-%d", seed), rg, func(p *Plan) []float64 {
			c := make([]float64, p.Len())
			for i := range c {
				c[i] = float64(rng.Intn(10))
			}
			return c
		})
	}
	return out
}

// sameBits reports whether two float slices are bit-identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkRanked compares the work-model outputs of got against want.
func checkRanked(t *testing.T, name string, got, want *Plan) {
	t.Helper()
	if !sameBits(got.Rank, want.Rank) {
		t.Errorf("%s: Rank differs from the reference", name)
	}
	if !slices.Equal(got.RankOrder, want.RankOrder) {
		t.Errorf("%s: RankOrder %v, reference %v", name, got.RankOrder, want.RankOrder)
	}
	if !slices.Equal(got.SuccList, want.SuccList) || !slices.Equal(got.SuccIdx, want.SuccIdx) {
		t.Errorf("%s: successor order differs from the reference", name)
	}
}

// TestOracleCompileRanks: Compile's unit-cost ranks, rank order and
// successor order equal the reference re-ranking of the graph's own
// successor lists.
func TestOracleCompileRanks(t *testing.T) {
	for _, c := range oracleGraphs(t) {
		want := *c.plan
		want.SuccList = nil
		for _, n := range c.g.Nodes() {
			want.SuccList = append(want.SuccList, toInt32(n.Succs())...)
		}
		refComputeRanks(&want, nil)
		checkRanked(t, c.name, c.plan, &want)
	}
}

// chainCosts sums each chain's design costs, the Costs a fused unit
// carries.
func chainCosts(p *Plan, chains [][]int32) []Cost {
	out := make([]Cost, len(chains))
	for u, chain := range chains {
		for _, m := range chain {
			out[u].BaseUS += p.Costs[m].BaseUS
			out[u].DataUS += p.Costs[m].DataUS
		}
	}
	return out
}

// TestOracleFuse: fusion by unit costs and by the cost vector — the
// automatic cap from the upward-rank sweep — yields the reference's
// units (names, edges and summed Costs), ranks, rank order and
// successor order.
func TestOracleFuse(t *testing.T) {
	for _, c := range oracleGraphs(t) {
		for _, costs := range [][]float64{nil, c.costs} {
			got, err := Fuse(c.plan, costs, FuseOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want, chains, err := refFuse(c.plan, costs)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s fused (unit costs %v)", c.name, costs == nil)
			if !slices.Equal(got.Names, want.Names) {
				t.Errorf("%s: units %v, reference %v", name, got.Names, want.Names)
			}
			if !slices.Equal(got.PredIdx, want.PredIdx) || !slices.Equal(got.PredList, want.PredList) {
				t.Errorf("%s: unit edges differ from the reference", name)
			}
			if !slices.Equal(got.Costs, chainCosts(c.plan, chains)) {
				t.Errorf("%s: unit costs %v, the reference chains' sums %v", name, got.Costs, chainCosts(c.plan, chains))
			}
			checkRanked(t, name, got, want)
		}
	}
}

// TestPlanCarriesDesignCosts: the builder's cost targets reach the plan
// through Compile, Apply and Fuse; nodes an edit adds carry none.
func TestPlanCarriesDesignCosts(t *testing.T) {
	cases := oracleGraphs(t)
	for _, c := range cases[:2] {
		for i, name := range c.plan.Names {
			want := c.g.Node(c.g.NodeByName(name)).Cost
			if strings.HasPrefix(name, "LiveDelay") && want != (Cost{}) {
				t.Errorf("%s: edit-added node has design cost %+v", name, want)
			}
			if c.plan.Costs[i] != want {
				t.Errorf("%s %s: plan cost %+v, node cost %+v", c.name, name, c.plan.Costs[i], want)
			}
		}
	}
	if got := cases[0].plan.Costs[cases[0].g.NodeByName("FXA1")]; got != CostFX {
		t.Errorf("FXA1 design cost %+v, want %+v", got, CostFX)
	}
	fp, err := Fuse(cases[0].plan, nil, FuseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, chains, err := refFuse(cases[0].plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	for u, want := range chainCosts(cases[0].plan, chains) {
		if fp.Costs[u] != want {
			t.Errorf("fused unit %s: cost %+v, want the members' sum %+v", fp.Names[u], fp.Costs[u], want)
		}
	}
}
