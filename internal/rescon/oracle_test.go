package rescon

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"djstar/internal/graph"
	"djstar/internal/synth"
)

// oracleCase is one oracle input: a plan and a per-node cost vector.
type oracleCase struct {
	name  string
	plan  *graph.Plan
	costs []float64
}

// oracleCases returns the standard 67-node plan and its fused plan under
// design costs, the plan with a three-unit live delay inserted on deck A,
// and 200 seeded random DAGs whose costs are small integers (ties and
// zeros included).
func oracleCases(t *testing.T) []oracleCase {
	t.Helper()
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
	costs := PaperCostsUS(plan)
	fused, err := graph.Fuse(plan, costs, graph.FuseOptions{})
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
	out := []oracleCase{
		{"standard", plan, costs},
		{"fused", fused, PaperCostsUS(fused)},
		{"insert-delay:A:3", edited, PaperCostsUS(edited)},
	}
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
		out = append(out, oracleCase{fmt.Sprintf("random-%d", seed), p, c})
	}
	return out
}

// orderDealt deals the queue order round-robin, the assignment the
// reference simulates (the executors deal RankOrder).
func orderDealt(p *graph.Plan, threads int) [][]int32 {
	lists := make([][]int32, threads)
	for i, id := range p.Order {
		lists[i%threads] = append(lists[i%threads], id)
	}
	return lists
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// sameResult reports whether two schedules are identical to the bit.
func sameResult(a, b *Result) bool {
	return a.Strategy == b.Strategy && a.Threads == b.Threads &&
		a.PeakConcurrency == b.PeakConcurrency && slices.Equal(a.Proc, b.Proc) &&
		sameBits([]float64{a.MakespanUS, a.WaitUS}, []float64{b.MakespanUS, b.WaitUS}) &&
		sameBits(a.Start, b.Start) && sameBits(a.Finish, b.Finish)
}

// TestOracleModel: the plan-backed model's earliest-start schedule, list
// schedules, critical path and efficiency equal the copied-adjacency
// reference model's to the bit, and so do its static-executor
// simulations when fed the queue-order deal the reference hard-codes.
func TestOracleModel(t *testing.T) {
	ov := StrategyOverheads{CheckUS: 0.5, WakeUS: 10}
	for _, c := range oracleCases(t) {
		m, err := FromPlan(c.plan, c.costs)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := refFromPlan(c.plan, c.costs)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(m.EarliestStart(), ref.EarliestStart()) {
			t.Errorf("%s: EarliestStart differs from the reference", c.name)
		}
		if !sameBits([]float64{m.CriticalPathUS(), m.TotalWork()}, []float64{ref.CriticalPathUS(), ref.TotalWork()}) {
			t.Errorf("%s: critical path %v / work %v, reference %v / %v",
				c.name, m.CriticalPathUS(), m.TotalWork(), ref.CriticalPathUS(), ref.TotalWork())
		}
		for i := 0; i < m.Len(); i++ {
			if m.Name(i) != ref.Name(i) || m.dur[i] != ref.dur[i] {
				t.Fatalf("%s: task %d is %s/%v, reference %s/%v", c.name, i, m.Name(i), m.dur[i], ref.Name(i), ref.dur[i])
			}
		}
		for procs := 1; procs <= 4; procs++ {
			for _, sim := range []struct {
				name     string
				got, ref func(int) (*Result, error)
			}{
				{"ListSchedule", m.ListSchedule, ref.ListSchedule},
				{"Simulate busy", func(n int) (*Result, error) {
					return m.Simulate(orderDealt(c.plan, n), StrategyOverheads{CheckUS: ov.CheckUS})
				}, func(n int) (*Result, error) { return ref.SimulateBusy(n, ov) }},
				{"Simulate sleep", func(n int) (*Result, error) { return m.Simulate(orderDealt(c.plan, n), ov) }, func(n int) (*Result, error) { return ref.SimulateSleep(n, ov) }},
			} {
				got, err := sim.got(procs)
				if err != nil {
					t.Fatal(err)
				}
				want, err := sim.ref(procs)
				if err != nil {
					t.Fatal(err)
				}
				if !sameResult(got, want) {
					t.Errorf("%s: %s(%d) differs from the reference", c.name, sim.name, procs)
				}
				if !sameBits([]float64{m.Efficiency(got)}, []float64{ref.Efficiency(want)}) {
					t.Errorf("%s: Efficiency of %s(%d) = %v, reference %v", c.name, sim.name, procs, m.Efficiency(got), ref.Efficiency(want))
				}
			}
		}
	}
}

// TestOraclePaperCosts: the plan's design costs price every standard
// node exactly as the name-keyed table did, in the standard plan and in
// an edited one.
func TestOraclePaperCosts(t *testing.T) {
	cases := oracleCases(t)
	for _, c := range []oracleCase{cases[0], cases[2]} {
		for i, name := range c.plan.Names {
			if strings.HasPrefix(name, "LiveDelay") {
				continue
			}
			if got, want := c.costs[i], refPaperCostFor(name); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: %s costs %v µs, reference %v", c.name, name, got, want)
			}
		}
	}
}

// TestLiveDelayPricesAtDesignCost: nodes a live edit inserts are priced
// at their declared design cost — a live delay has no spin target, so 0 —
// not at a name table's fallback.
func TestLiveDelayPricesAtDesignCost(t *testing.T) {
	edited := oracleCases(t)[2]
	n := 0
	for i, name := range edited.plan.Names {
		if strings.HasPrefix(name, "LiveDelay") {
			n++
			if edited.costs[i] != 0 {
				t.Errorf("%s priced at %v µs, want its design cost 0", name, edited.costs[i])
			}
		}
	}
	if n != 3 {
		t.Fatalf("edited plan has %d live delay nodes, want 3", n)
	}
}
