package admission

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"djstar/internal/graph"
	"djstar/internal/rescon"
	"djstar/internal/synth"
)

// Oracle for the analysis: Analyze, which now takes the critical path
// from the plan's forward sweep, and ShedCosts, which now sheds by the
// one kind→rung rule, are held to the reference below — kept verbatim
// (renamed) — on the standard plan, its fused plan, an edited plan and
// seeded random DAGs.

// refAnalyze computes the schedulability report for a compiled plan under
// per-node costs (µs, execution scale), a strategy name and an
// effective parallelism. source labels the cost provenance ("measured"
// or "static").
func refAnalyze(plan *graph.Plan, costsUS []float64, strategy string, threads int, source string, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if threads < 1 {
		threads = 1
	}
	m, err := rescon.FromPlan(plan, costsUS)
	if err != nil {
		return nil, err
	}
	r := &Report{
		Strategy:   strategy,
		Threads:    threads,
		Nodes:      plan.Len(),
		Source:     source,
		EnvelopeUS: cfg.PeriodUS,
		BaseUS:     cfg.BaseUS,
	}
	r.TotalWorkUS = m.TotalWork()
	r.CritPathUS = m.EarliestStart().MakespanUS
	if ls, err := m.ListSchedule(threads); err == nil {
		r.ListUS = ls.MakespanUS
	}
	n := float64(plan.Len())
	r.GrahamUS = rescon.GrahamBound(r.TotalWorkUS, r.CritPathUS, threads) +
		n*cfg.Overheads.CheckUS/float64(threads)

	switch strategy {
	case "seq":
		r.GraphBoundUS = r.TotalWorkUS + n*cfg.Overheads.CheckUS
	case "sleep", "sleepscan":
		sim, err := m.SimulateSleep(threads, cfg.Overheads)
		if err != nil {
			return nil, err
		}
		r.SimUS = sim.MakespanUS
		r.GraphBoundUS = maxf(r.GrahamUS, r.SimUS)
	case "busy", "static":
		sim, err := m.SimulateBusy(threads, cfg.Overheads)
		if err != nil {
			return nil, err
		}
		r.SimUS = sim.MakespanUS
		r.GraphBoundUS = maxf(r.GrahamUS, r.SimUS)
	default: // work-conserving: ws, pool
		r.GraphBoundUS = r.GrahamUS
	}
	r.BoundUS = cfg.Margin * (cfg.BaseUS + r.GraphBoundUS)
	r.HeadroomUS = r.EnvelopeUS - r.BoundUS
	if r.EnvelopeUS > 0 {
		r.UtilRatio = r.BoundUS / r.EnvelopeUS
	}
	return r, nil
}

// refShedCosts returns a copy of costsUS with the shed node kinds zeroed —
// the cost model of the governor ladder's degraded modes (rung 1 sheds
// meters and control, rung 2 additionally bypasses FX). Shed nodes
// still dispatch (the bypass stand-in runs), so the per-node check
// overhead in the analysis is unchanged; only the kernel cost vanishes.
func refShedCosts(plan *graph.Plan, costsUS []float64, shedUI, shedFX bool) []float64 {
	out := append([]float64(nil), costsUS...)
	for i, k := range plan.Kinds {
		if i >= len(out) {
			break
		}
		switch k {
		case graph.KindMeter, graph.KindControl:
			if shedUI {
				out[i] = 0
			}
		case graph.KindFX:
			if shedFX {
				out[i] = 0
			}
		}
	}
	return out
}

// oracleStrategies is every strategy name Analyze distinguishes.
var oracleStrategies = []string{"seq", "busy", "sleep", "sleepscan", "static", "ws", "pool"}

// oraclePlans returns the oracle inputs with a per-node cost vector each:
// the standard 67-node plan and its fused plan under design costs, the
// plan with a three-unit live delay inserted on deck A, and 200 seeded
// random DAGs whose costs are small integers (ties and zeros included).
func oraclePlans(t *testing.T) (names []string, plans []*graph.Plan, costs [][]float64) {
	t.Helper()
	add := func(name string, p *graph.Plan, c []float64) {
		names, plans, costs = append(names, name), append(plans, p), append(costs, c)
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
	fused, err := graph.Fuse(plan, rescon.PaperCostsUS(plan), graph.FuseOptions{})
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
	for _, p := range []*graph.Plan{plan, fused, edited} {
		add(fmt.Sprintf("%d-node standard", p.Len()), p, rescon.PaperCostsUS(p))
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
		add(fmt.Sprintf("random-%d", seed), p, c)
	}
	return names, plans, costs
}

// TestOracleAnalyze: every strategy × threads 1..4 report equals the
// reference's, field for field and to the bit.
func TestOracleAnalyze(t *testing.T) {
	names, plans, costs := oraclePlans(t)
	cfg := Config{BaseUS: 300}
	for i, p := range plans {
		for _, strategy := range oracleStrategies {
			for threads := 1; threads <= 4; threads++ {
				got, err := Analyze(p, costs[i], strategy, threads, "static", cfg)
				if err != nil {
					t.Fatal(err)
				}
				want, err := refAnalyze(p, costs[i], strategy, threads, "static", cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) || math.Float64bits(got.CritPathUS) != math.Float64bits(want.CritPathUS) ||
					math.Float64bits(got.BoundUS) != math.Float64bits(want.BoundUS) {
					t.Errorf("%s %s/%d: %+v, reference %+v", names[i], strategy, threads, got, want)
				}
			}
		}
	}
}

// TestOracleShedCosts: rung r of the one kind→rung rule zeroes what the
// reference's (shed UI, shed FX) flags zeroed — rung 1 meters and
// control, rung 2 also FX.
func TestOracleShedCosts(t *testing.T) {
	names, plans, costs := oraclePlans(t)
	for i, p := range plans[:3] {
		for rung, flags := range [][2]bool{{false, false}, {true, false}, {true, true}} {
			got, want := ShedCosts(p, costs[i], rung), refShedCosts(p, costs[i], flags[0], flags[1])
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s rung %d: %v, reference %v", names[i], rung, got, want)
			}
		}
	}
}
