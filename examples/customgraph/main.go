// Custom graph: the scheduling machinery is not tied to the DJ Star
// topology. This example builds a synthetic image-pipeline-style task
// graph by hand, runs it under all four strategies and compares their
// makespans — the way you would evaluate the strategies for your own
// stream-processing workload.
//
//	go run ./examples/customgraph
package main

import (
	"fmt"
	"log"
	"math"

	"djstar/internal/graph"
	"djstar/internal/sched"
	"djstar/internal/stats"
)

// stage simulates a compute kernel of roughly the given microseconds by
// doing real floating-point work (no sleeping — the schedulers are being
// measured).
func stage(us float64) func() {
	iters := int(us * 150) // rough: ~150 iterations per µs of math
	return func() {
		x := 1.7
		for i := 0; i < iters; i++ {
			x = math.Sqrt(x*x+1) * 0.99
		}
		sink = x
	}
}

var sink float64

func main() {
	// A fan-out/fan-in pipeline: 8 tile decoders feed 4 filter chains of
	// 3 stages each, merged by a compositor and finished by an encoder.
	g := graph.New()

	var decoders []int
	for i := 0; i < 8; i++ {
		decoders = append(decoders,
			g.AddNode(fmt.Sprintf("decode%d", i), graph.SectionControl, stage(20)))
	}
	var chains []int
	for c := 0; c < 4; c++ {
		prev := -1
		for s := 0; s < 3; s++ {
			id := g.AddNode(fmt.Sprintf("filter%d.%d", c, s), graph.DeckSection(c), stage(40))
			if s == 0 {
				// Each chain consumes two decoder tiles.
				must(g.AddEdge(decoders[2*c], id))
				must(g.AddEdge(decoders[2*c+1], id))
			} else {
				must(g.AddEdge(prev, id))
			}
			prev = id
		}
		chains = append(chains, prev)
	}
	compositor := g.AddNode("composite", graph.SectionMaster, stage(60))
	for _, c := range chains {
		must(g.AddEdge(c, compositor))
	}
	encoder := g.AddNode("encode", graph.SectionMaster, stage(30))
	must(g.AddEdge(compositor, encoder))

	plan, err := g.Compile()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("custom graph: %d nodes, %d sources, critical path %d nodes\n\n",
		plan.Len(), len(plan.Sources()), plan.CriticalPathLen)

	const cycles = 400
	rows := [][]string{}
	var seqMean float64
	for _, name := range sched.Strategies {
		threads := 4
		if name == sched.NameSequential {
			threads = 1
		}
		s, err := sched.New(name, plan, sched.Options{Threads: threads})
		if err != nil {
			log.Fatal(err)
		}
		sum := stats.NewSummary()
		for i := 0; i < cycles; i++ {
			start := graph.NowNanos()
			s.Execute()
			sum.Add(float64(graph.NowNanos()-start) / 1e3) // µs
		}
		s.Close()
		if name == sched.NameSequential {
			seqMean = sum.Mean()
		}
		speedup := "-"
		if seqMean > 0 && name != sched.NameSequential {
			speedup = fmt.Sprintf("%.2f", seqMean/sum.Mean())
		}
		rows = append(rows, []string{name, fmt.Sprintf("%d", threads),
			fmt.Sprintf("%.1f", sum.Mean()), fmt.Sprintf("%.1f", sum.Max()), speedup})
	}
	fmt.Print(stats.RenderTable(
		[]string{"strategy", "threads", "mean µs", "worst µs", "speedup"}, rows))
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
