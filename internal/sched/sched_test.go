package sched

import (
	"fmt"
	"math"
	"testing"

	"djstar/internal/graph"
)

// newEach builds one scheduler of every strategy for the plan.
func newEach(t *testing.T, p *graph.Plan, threads int) []Scheduler {
	t.Helper()
	var out []Scheduler
	for _, name := range Strategies {
		th := threads
		if name == NameSequential {
			th = 1
		}
		s, err := New(name, p, Options{Threads: th})
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		out = append(out, s)
	}
	return out
}

func TestFactoryRejectsUnknown(t *testing.T) {
	g, _ := graph.RandomDAG(graph.RandomSpec{Nodes: 3, Seed: 1})
	p, _ := g.Compile()
	if _, err := New("bogus", p, Options{Threads: 2}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestThreadValidation(t *testing.T) {
	g, _ := graph.RandomDAG(graph.RandomSpec{Nodes: 3, Seed: 1})
	p, _ := g.Compile()
	for _, name := range []string{NameBusyWait, NameSleep, NameWorkSteal} {
		if _, err := New(name, p, Options{Threads: -1}); err == nil {
			t.Fatalf("%s accepted negative threads", name)
		}
		if _, err := New(name, p, Options{Threads: 99}); err == nil {
			t.Fatalf("%s accepted more threads than nodes", name)
		}
	}
	if _, err := New(NameBusyWait, nil, Options{Threads: 1}); err == nil {
		t.Fatal("nil plan accepted")
	}
}

func TestNamesAndThreads(t *testing.T) {
	g, _ := graph.RandomDAG(graph.RandomSpec{Nodes: 10, EdgeProb: 0.2, Seed: 2})
	p, _ := g.Compile()
	// Every name New accepts, each asked for 3 threads: seq ignores it.
	for _, name := range newNames() {
		s, err := New(name, p, Options{Threads: 3})
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		wantThreads := 3
		if name == NameSequential {
			wantThreads = 1
		}
		if s.Name() != name || s.Threads() != wantThreads {
			t.Fatalf("New(%q) Name/Threads = %s/%d, want %s/%d", name, s.Name(), s.Threads(), name, wantThreads)
		}
		s.Close()
	}
}

// TestAllStrategiesRespectDependencies is the central correctness
// property: on randomized DAGs, every strategy runs every node exactly
// once and never before its dependencies, across repeated cycles.
func TestAllStrategiesRespectDependencies(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5, 42, 99, 12345}
	for _, threads := range []int{1, 2, 3, 4, 8} {
		for _, seed := range seeds {
			spec := graph.RandomSpec{
				Nodes:    16 + int(seed%50),
				EdgeProb: 0.12,
				Seed:     seed,
			}
			g, tr := graph.RandomDAG(spec)
			p, err := g.Compile()
			if err != nil {
				t.Fatal(err)
			}
			if threads > p.Len() {
				continue
			}
			for _, name := range Strategies {
				th := threads
				if name == NameSequential {
					th = 1
				}
				s, err := New(name, p, Options{Threads: th})
				if err != nil {
					t.Fatal(err)
				}
				for cycle := 0; cycle < 5; cycle++ {
					tr.Reset()
					s.Execute()
					if err := tr.Check(p); err != nil {
						t.Fatalf("%s threads=%d seed=%d cycle=%d: %v",
							name, threads, seed, cycle, err)
					}
				}
				s.Close()
			}
		}
	}
}

// TestDJStarGraphAllStrategies runs the real 67-node graph under every
// strategy for many cycles, checking dependency-order correctness via an
// overlay trace is unnecessary here — instead we check the stronger
// property that the audio output matches the sequential execution
// bit-for-bit (dataflow determinism).
func TestDJStarGraphAllStrategies(t *testing.T) {
	const cycles = 120

	runStrategy := func(name string, threads int) []float64 {
		cfg := graph.DefaultConfig()
		cfg.TrackBars = 2
		sess, g, err := graph.BuildDJStar(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p, err := g.Compile()
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(name, p, Options{Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var sums []float64
		for c := 0; c < cycles; c++ {
			sess.Prepare()
			s.Execute()
			sum := 0.0
			for _, v := range sess.MasterOut().L {
				sum += v
			}
			sums = append(sums, sum)
		}
		return sums
	}

	ref := runStrategy(NameSequential, 1)
	var refNonZero bool
	for _, v := range ref {
		if v != 0 {
			refNonZero = true
		}
	}
	if !refNonZero {
		t.Fatal("sequential reference produced all-zero audio")
	}

	for _, name := range []string{NameBusyWait, NameSleep, NameWorkSteal} {
		for _, threads := range []int{2, 4} {
			got := runStrategy(name, threads)
			for c := range ref {
				if math.Abs(got[c]-ref[c]) > 1e-12 {
					t.Fatalf("%s threads=%d: cycle %d output %v differs from sequential %v",
						name, threads, c, got[c], ref[c])
				}
			}
		}
	}
}

func TestWorkStealVariants(t *testing.T) {
	g, tr := graph.RandomDAG(graph.RandomSpec{Nodes: 40, EdgeProb: 0.15, Seed: 7})
	p, _ := g.Compile()
	for _, opts := range []WSOptions{
		{},
		{RoundRobinInit: true},
		{LockedDeque: true},
		{RoundRobinInit: true, LockedDeque: true},
	} {
		s, err := NewWorkSteal(p, Options{Threads: 4, WS: opts})
		if err != nil {
			t.Fatal(err)
		}
		for cycle := 0; cycle < 10; cycle++ {
			tr.Reset()
			s.Execute()
			if err := tr.Check(p); err != nil {
				t.Fatalf("opts %+v: %v", opts, err)
			}
		}
		s.Close()
	}
}

func TestWorkStealCounters(t *testing.T) {
	// A long chain forces steals: all work migrates from one seed worker.
	g := graph.New()
	prev := -1
	var tr *graph.ExecTrace
	tr = graph.NewExecTrace(64)
	for i := 0; i < 64; i++ {
		i := i
		id := g.AddNode(fmt.Sprintf("n%d", i), graph.SectionDeckA, func() { tr.Record(i) })
		if prev >= 0 {
			if err := g.AddEdge(prev, id); err != nil {
				t.Fatal(err)
			}
		}
		prev = id
	}
	p, _ := g.Compile()
	s, err := NewWorkSteal(p, Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for cycle := 0; cycle < 20; cycle++ {
		tr.Reset()
		s.Execute()
		if err := tr.Check(p); err != nil {
			t.Fatal(err)
		}
	}
	// Counters are diagnostics; just make sure they are readable and sane.
	if s.Steals() < 0 || s.Parks() < 0 {
		t.Fatal("negative counters")
	}
}

func TestTracerRecordsFullSchedule(t *testing.T) {
	cfg := graph.DefaultConfig()
	cfg.TrackBars = 2
	sess, g, err := graph.BuildDJStar(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := g.Compile()
	for _, name := range Strategies {
		threads := 4
		if name == NameSequential {
			threads = 1
		}
		tr := newRecorder(p.Len())
		s, err := New(name, p, Options{Threads: threads, Observer: tr})
		if err != nil {
			t.Fatal(err)
		}
		sess.Prepare()
		s.Execute()
		events := tr.Events()
		if len(events) != p.Len() {
			t.Fatalf("%s: %d events, want %d", name, len(events), p.Len())
		}
		for i, e := range events {
			if e.Worker < 0 {
				t.Fatalf("%s: node %d not traced", name, i)
			}
			if int(e.Worker) >= threads {
				t.Fatalf("%s: node %d on worker %d of %d", name, i, e.Worker, threads)
			}
			if e.End < e.Start {
				t.Fatalf("%s: node %d end before start", name, i)
			}
			// Trace must respect dependencies: preds end before node ends.
			for _, d := range p.PredsOf(int32(i)) {
				if events[d].Start > e.End {
					t.Fatalf("%s: node %s started after successor %s finished",
						name, p.Names[d], p.Names[i])
				}
			}
		}
		if tr.Makespan() <= 0 {
			t.Fatalf("%s: makespan %d", name, tr.Makespan())
		}
		s.Close()
	}
}

func TestSchedulersReusableAfterManyCycles(t *testing.T) {
	// Soak test: a small graph, many iterations, exercising the cycle
	// barriers and cross-cycle state reset of each strategy.
	g, tr := graph.RandomDAG(graph.RandomSpec{Nodes: 30, EdgeProb: 0.2, Seed: 3})
	p, _ := g.Compile()
	for _, name := range []string{NameBusyWait, NameSleep, NameWorkSteal} {
		s, err := New(name, p, Options{Threads: 4})
		if err != nil {
			t.Fatal(err)
		}
		for cycle := 0; cycle < 500; cycle++ {
			tr.Reset()
			s.Execute()
			if err := tr.Check(p); err != nil {
				t.Fatalf("%s cycle %d: %v", name, cycle, err)
			}
		}
		s.Close()
	}
}

func TestSingleThreadParallelStrategies(t *testing.T) {
	// threads=1 degenerates to sequential semantics for every strategy.
	g, tr := graph.RandomDAG(graph.RandomSpec{Nodes: 25, EdgeProb: 0.25, Seed: 9})
	p, _ := g.Compile()
	for _, name := range []string{NameBusyWait, NameSleep, NameWorkSteal} {
		s, err := New(name, p, Options{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		tr.Reset()
		s.Execute()
		if err := tr.Check(p); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s.Close()
	}
}

func TestRoundRobinListsCoverAllNodes(t *testing.T) {
	g, _ := graph.RandomDAG(graph.RandomSpec{Nodes: 23, EdgeProb: 0.1, Seed: 5})
	p, _ := g.Compile()
	lists := p.RoundRobinLists(4)
	seen := map[int32]bool{}
	for _, l := range lists {
		for _, id := range l {
			if seen[id] {
				t.Fatalf("node %d assigned twice", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != p.Len() {
		t.Fatalf("%d nodes assigned, want %d", len(seen), p.Len())
	}
	// Balanced within 1.
	for _, l := range lists {
		if len(l) < p.Len()/4 || len(l) > p.Len()/4+1 {
			t.Fatalf("unbalanced list size %d for %d nodes", len(l), p.Len())
		}
	}
	// Dealt by descending rank: RankOrder[i] goes to worker i mod 4.
	for i, id := range p.RankOrder {
		if lists[i%4][i/4] != id {
			t.Fatalf("position %d of the rank order dealt %d, want %d", i, lists[i%4][i/4], id)
		}
	}
}

func TestInitialSourcesLocality(t *testing.T) {
	cfg := graph.DefaultConfig()
	cfg.TrackBars = 2
	_, g, err := graph.BuildDJStar(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := g.Compile()

	local := initialSources(p, 4, false)
	// Every deck's SP sources must sit on a single worker.
	workerOf := map[int32]int{}
	for w, l := range local {
		for _, id := range l {
			workerOf[id] = w
		}
	}
	total := 0
	for _, l := range local {
		total += len(l)
	}
	if total != 33 {
		t.Fatalf("distributed %d sources, want 33", total)
	}
	for sec, srcs := range p.SourcesBySection {
		w := -1
		for _, id := range srcs {
			if w == -1 {
				w = workerOf[id]
			} else if workerOf[id] != w {
				t.Fatalf("section %v sources split across workers", sec)
			}
		}
	}

	rr := initialSources(p, 4, true)
	totalRR := 0
	for _, l := range rr {
		totalRR += len(l)
	}
	if totalRR != 33 {
		t.Fatalf("round-robin distributed %d sources, want 33", totalRR)
	}
}
