package exp

import (
	"fmt"
	"time"

	"djstar/internal/engine"
	"djstar/internal/graph"
	"djstar/internal/sched"
	"djstar/internal/stats"
)

// Fusion measures per-cycle scheduling overhead with and without chain
// fusion. The workload is a spin-cycle benchmark graph shaped like the
// overhead-dominated part of DJ Star — long linear FX chains per deck
// feeding a mixer tail — with near-zero node cost, so the measured
// ns/node is almost pure scheduler machinery: claim, dependency release,
// wake-up. Fusion collapses each chain into a handful of fused units;
// the drop in ns/node is the per-hop handshake the fused hops no longer
// pay. Every parallel strategy is measured; ns/node is normalized by the
// ORIGINAL node count in both columns so the two are directly
// comparable.

// FusionRow is one strategy's fused-vs-unfused measurement.
type FusionRow struct {
	Strategy string
	Threads  int
	// OffNSPerNode / OnNSPerNode are mean per-cycle scheduling costs in
	// ns per original node, fusion off / on.
	OffNSPerNode float64
	OnNSPerNode  float64
	// Speedup is Off/On (>1 means fusion helped).
	Speedup float64
}

// FusionResult is the structured outcome of the fusion experiment.
type FusionResult struct {
	// Nodes / FusedNodes are the plan sizes before and after fusion;
	// FusedUnits counts multi-member units.
	Nodes      int
	FusedNodes int
	FusedUnits int
	Threads    int
	Cycles     int
	Rows       []FusionRow
}

// fusionGraphSpec shapes the spin-cycle benchmark graph.
const (
	fusionChains   = 8  // parallel FX chains (two per deck section)
	fusionChainLen = 12 // nodes per chain
	fusionSpinUnit = 2  // per-node work: ~a dozen ns, overhead-dominated
)

// fusionBenchGraph builds the spin-cycle benchmark graph: fusionChains
// linear same-kind chains (sources spread across the deck sections for
// WS seeding), all feeding a mixer node and a short master tail.
func fusionBenchGraph() (*graph.Graph, error) {
	g := graph.New()
	var tails []int
	for c := 0; c < fusionChains; c++ {
		sec := graph.DeckSection(c % 4)
		prev := -1
		for i := 0; i < fusionChainLen; i++ {
			id := g.AddNode(fmt.Sprintf("C%dN%d", c, i), sec, func() { graph.Spin(fusionSpinUnit) })
			g.Node(id).Kind = graph.KindFX
			if prev >= 0 {
				if err := g.AddEdge(prev, id); err != nil {
					return nil, err
				}
			}
			prev = id
		}
		tails = append(tails, prev)
	}
	mix := g.AddNode("Mix", graph.SectionMaster, func() { graph.Spin(fusionSpinUnit) })
	for _, t := range tails {
		if err := g.AddEdge(t, mix); err != nil {
			return nil, err
		}
	}
	limiter := g.AddNode("Limiter", graph.SectionMaster, func() { graph.Spin(fusionSpinUnit) })
	out := g.AddNode("Out", graph.SectionMaster, func() { graph.Spin(fusionSpinUnit) })
	if err := g.AddEdge(mix, limiter); err != nil {
		return nil, err
	}
	if err := g.AddEdge(limiter, out); err != nil {
		return nil, err
	}
	return g, nil
}

// fusionStrategies are measured in presentation order: the paper's
// parallel strategies plus the two extra executors.
var fusionStrategies = []string{
	sched.NameBusyWait, sched.NameStatic, sched.NameWorkSteal,
	sched.NameSleep, sched.NameSleepScan,
}

// measureNSPerNode runs cycles iterations of p under one strategy and
// returns the mean per-cycle cost in ns, divided by baseNodes.
func measureNSPerNode(strategy string, p *graph.Plan, threads, cycles, baseNodes int) (float64, error) {
	s, err := sched.New(strategy, p, sched.Options{Threads: threads})
	if err != nil {
		return 0, err
	}
	defer s.Close()
	for i := engine.WarmUpCycles(cycles); i > 0; i-- {
		s.Execute()
	}
	t0 := time.Now()
	for i := 0; i < cycles; i++ {
		s.Execute()
	}
	dt := time.Since(t0)
	return float64(dt.Nanoseconds()) / float64(cycles) / float64(baseNodes), nil
}

// Fusion runs the chain-fusion overhead experiment (EXPERIMENTS.md R5).
func Fusion(o Options) (*FusionResult, error) {
	o.normalize()
	g, err := fusionBenchGraph()
	if err != nil {
		return nil, err
	}
	plan, err := g.Compile()
	if err != nil {
		return nil, err
	}
	// Shape-only fusion (unit costs, uncapped): each 12-node chain
	// collapses into ⌈12/8⌉ = 2 units, the mixer tail into one.
	fused, err := graph.Fuse(plan, nil, graph.FuseOptions{MaxCostUS: 1e12})
	if err != nil {
		return nil, err
	}

	res := &FusionResult{
		Nodes:      plan.Len(),
		FusedNodes: fused.Len(),
		FusedUnits: fused.FusedUnits(),
		Threads:    o.MaxThreads,
		Cycles:     o.Cycles,
	}
	fprintf(o.Out, "spin-cycle benchmark graph: %d nodes -> %d fused (%d multi-member units), %d chains x %d, %d threads, %d cycles\n\n",
		res.Nodes, res.FusedNodes, res.FusedUnits, fusionChains, fusionChainLen, res.Threads, res.Cycles)

	var rows [][]string
	for _, name := range fusionStrategies {
		off, err := measureNSPerNode(name, plan, o.MaxThreads, o.Cycles, plan.Len())
		if err != nil {
			return nil, err
		}
		on, err := measureNSPerNode(name, fused, o.MaxThreads, o.Cycles, plan.Len())
		if err != nil {
			return nil, err
		}
		row := FusionRow{
			Strategy:     name,
			Threads:      o.MaxThreads,
			OffNSPerNode: off,
			OnNSPerNode:  on,
			Speedup:      off / on,
		}
		res.Rows = append(res.Rows, row)
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%.0f", row.OffNSPerNode),
			fmt.Sprintf("%.0f", row.OnNSPerNode),
			fmt.Sprintf("%.2fx", row.Speedup),
		})
	}
	fprintf(o.Out, "%s", stats.RenderTable(
		[]string{"strategy", "ns/node off", "ns/node on", "speedup"}, rows))
	fprintf(o.Out, "\nns/node = mean per-cycle scheduling cost over the %d original nodes; node work is ~constant, so the delta is pure scheduler overhead\n", res.Nodes)
	return res, nil
}
