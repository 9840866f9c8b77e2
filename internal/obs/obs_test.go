package obs

import (
	"fmt"
	"testing"

	"djstar/internal/graph"
	"djstar/internal/sched"
)

// chainPlan compiles a 4-node chain a→b→c→d.
func chainPlan(t testing.TB) *graph.Plan {
	t.Helper()
	g := graph.New()
	prev := -1
	for i := 0; i < 4; i++ {
		id := g.AddNode(fmt.Sprintf("n%d", i), graph.SectionDeckA, nil)
		if prev >= 0 {
			if err := g.AddEdge(prev, id); err != nil {
				t.Fatal(err)
			}
		}
		prev = id
	}
	p, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// feed pushes one synthetic cycle into the collector: node i runs on
// worker i%workers over [base+starts[i], base+ends[i]] (µs offsets).
func feed(c *Collector, workers int, startsUS, endsUS []int64) {
	c.BeginCycle()
	base := c.base
	for i := range startsUS {
		c.Record(int32(i), int32(i%workers), base+startsUS[i]*1e3, base+endsUS[i]*1e3)
	}
	c.EndCycle()
}

func TestCollectorNodeStats(t *testing.T) {
	p := chainPlan(t)
	c := NewCollector(p, Config{Workers: 2, TraceEvery: -1})

	// Three identical cycles: node i runs [10*i, 10*i+5] µs — back to
	// back along the chain with a 5 µs wait after each predecessor.
	starts := []int64{0, 10, 20, 30}
	ends := []int64{5, 15, 25, 35}
	for cyc := 0; cyc < 3; cyc++ {
		feed(c, 2, starts, ends)
	}

	if got := c.Cycles(); got != 3 {
		t.Fatalf("Cycles = %d, want 3", got)
	}
	stats := c.NodeStats()
	if len(stats) != p.Len() {
		t.Fatalf("%d node stats, want %d", len(stats), p.Len())
	}
	for i, s := range stats {
		if s.Node != int32(i) || s.Name != p.Names[i] {
			t.Fatalf("stat %d misidentified: %+v", i, s)
		}
		if s.Count != 3 {
			t.Fatalf("node %d count = %d, want 3", i, s.Count)
		}
		for what, got := range map[string]float64{
			"min": s.MinUS, "mean": s.MeanUS, "max": s.MaxUS, "p99": s.P99US,
		} {
			if got != 5 {
				t.Fatalf("node %d %s = %v µs, want 5", i, what, got)
			}
		}
	}
	// Source node: ready at cycle base, started at 0 → no wait. Chain
	// nodes: predecessor ends at 10i-5, start at 10i → 5 µs wait.
	if stats[0].WaitMeanUS != 0 {
		t.Fatalf("source wait = %v, want 0", stats[0].WaitMeanUS)
	}
	for i := 1; i < len(stats); i++ {
		if stats[i].WaitMeanUS != 5 {
			t.Fatalf("node %d wait = %v µs, want 5", i, stats[i].WaitMeanUS)
		}
	}

	means := c.NodeMeansUS()
	for i, m := range means {
		if m != 5 {
			t.Fatalf("mean[%d] = %v, want 5", i, m)
		}
	}
}

func TestCollectorMinMax(t *testing.T) {
	p := chainPlan(t)
	c := NewCollector(p, Config{Workers: 1, TraceEvery: -1})
	feed(c, 1, []int64{0, 10, 20, 30}, []int64{2, 15, 25, 35}) // n0: 2 µs
	feed(c, 1, []int64{0, 10, 20, 30}, []int64{8, 15, 25, 35}) // n0: 8 µs
	s := c.NodeStats()[0]
	if s.MinUS != 2 || s.MaxUS != 8 || s.MeanUS != 5 {
		t.Fatalf("min/mean/max = %v/%v/%v, want 2/5/8", s.MinUS, s.MeanUS, s.MaxUS)
	}
}

func TestCollectorTraceRing(t *testing.T) {
	p := chainPlan(t)
	c := NewCollector(p, Config{Workers: 2, TraceEvery: 2, TraceRing: 3})
	if got := c.Traces(); len(got) != 0 {
		t.Fatalf("%d traces before any cycle", len(got))
	}
	starts := []int64{0, 10, 20, 30}
	ends := []int64{5, 15, 25, 35}
	feed(c, 2, starts, ends)
	feed(c, 2, starts, ends)
	// A ring not yet full exports what it has: the one sample, cycle 2.
	if got := c.Traces(); len(got) != 1 || got[0].Cycle != 2 {
		t.Fatalf("traces after 2 cycles = %+v, want one from cycle 2", got)
	}
	for cyc := 2; cyc < 10; cyc++ {
		feed(c, 2, starts, ends)
	}
	// 10 cycles at TraceEvery=2 → 5 samples (cycles 2,4,6,8,10); ring
	// depth 3 → the export holds the 3 newest, oldest first.
	traces := c.Traces()
	if len(traces) != 3 {
		t.Fatalf("%d traces, want 3", len(traces))
	}
	for i, want := range []uint64{6, 8, 10} {
		if traces[i].Cycle != want {
			t.Fatalf("trace %d from cycle %d, want %d", i, traces[i].Cycle, want)
		}
	}
	ct := traces[2]
	if ct.Workers != 2 {
		t.Fatalf("latest trace cycle/workers = %d/%d, want 10/2", ct.Cycle, ct.Workers)
	}
	if ct.MakespanNS() != 35*1e3 {
		t.Fatalf("makespan = %d ns, want 35000", ct.MakespanNS())
	}
	for i := range starts {
		if ct.StartNS[i] != starts[i]*1e3 || ct.EndNS[i] != ends[i]*1e3 {
			t.Fatalf("node %d window [%d,%d], want [%d,%d]",
				i, ct.StartNS[i], ct.EndNS[i], starts[i]*1e3, ends[i]*1e3)
		}
		if ct.Worker[i] != int32(i%2) {
			t.Fatalf("node %d worker %d, want %d", i, ct.Worker[i], i%2)
		}
	}

	// Gantt conversion drops nothing here (every node ran).
	tasks := ct.GanttTasks(p.Names)
	if len(tasks) != p.Len() {
		t.Fatalf("%d gantt tasks, want %d", len(tasks), p.Len())
	}
	if tasks[1].Start != 10 || tasks[1].End != 15 {
		t.Fatalf("task 1 window [%v,%v] µs, want [10,15]", tasks[1].Start, tasks[1].End)
	}
}

func TestCollectorTracesDisabled(t *testing.T) {
	p := chainPlan(t)
	c := NewCollector(p, Config{Workers: 1, TraceEvery: -1})
	feed(c, 1, []int64{0, 1, 2, 3}, []int64{1, 2, 3, 4})
	if got := c.Traces(); len(got) != 0 {
		t.Fatalf("%d traces with capture disabled", len(got))
	}
}

// TestCollectorHotPathNoAlloc pins the collector's steady-state contract:
// the full observer cycle (BeginCycle, one Record per node, EndCycle,
// including a sampled-trace cycle) allocates nothing.
func TestCollectorHotPathNoAlloc(t *testing.T) {
	p := chainPlan(t)
	c := NewCollector(p, Config{Workers: 2, TraceEvery: 1, TraceRing: 2})
	starts := []int64{0, 10, 20, 30}
	ends := []int64{5, 15, 25, 35}
	feed(c, 2, starts, ends) // warm up
	allocs := testing.AllocsPerRun(100, func() { feed(c, 2, starts, ends) })
	if allocs != 0 {
		t.Fatalf("observer cycle allocates %v", allocs)
	}
}

// TestCollectorAsObserver wires a collector into a real scheduler and
// checks every node of every cycle lands in the stats.
func TestCollectorAsObserver(t *testing.T) {
	p := randomPlan(t, 25, 0.2, 3)
	c := NewCollector(p, Config{Workers: 3, TraceEvery: 1, TraceRing: 4})
	s, err := sched.New(sched.NameBusyWait, p, sched.Options{Threads: 3, Observer: c})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const cycles = 20
	for i := 0; i < cycles; i++ {
		s.Execute()
	}
	if got := c.Cycles(); got != cycles {
		t.Fatalf("Cycles = %d, want %d", got, cycles)
	}
	for _, st := range c.NodeStats() {
		if st.Count != cycles {
			t.Fatalf("node %s count = %d, want %d", st.Name, st.Count, cycles)
		}
		if st.MaxUS < st.MinUS || st.MeanUS < st.MinUS || st.MeanUS > st.MaxUS {
			t.Fatalf("node %s stats inconsistent: %+v", st.Name, st)
		}
	}
	traces := c.Traces()
	if len(traces) != 4 {
		t.Fatalf("%d traces sampled, want a full ring of 4", len(traces))
	}
	if traces[3].Cycle != cycles || traces[3].MakespanNS() <= 0 {
		t.Fatalf("newest trace from cycle %d, makespan %d ns", traces[3].Cycle, traces[3].MakespanNS())
	}
}
