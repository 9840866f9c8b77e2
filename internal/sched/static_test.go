package sched

import (
	"testing"

	"djstar/internal/graph"
)

func TestStaticValidation(t *testing.T) {
	g, _ := graph.RandomDAG(graph.RandomSpec{Nodes: 5, EdgeProb: 0.2, Seed: 1})
	p, _ := g.Compile()

	if _, err := NewStatic(nil, [][]int32{{0}}, Options{}); err == nil {
		t.Fatal("nil plan accepted")
	}
	if _, err := NewStatic(p, nil, Options{}); err == nil {
		t.Fatal("no lists accepted")
	}
	if _, err := NewStatic(p, [][]int32{{0, 1, 2}}, Options{}); err == nil {
		t.Fatal("incomplete coverage accepted")
	}
	if _, err := NewStatic(p, [][]int32{{0, 1, 2, 3, 3}}, Options{}); err == nil {
		t.Fatal("duplicate assignment accepted")
	}
	if _, err := NewStatic(p, [][]int32{{0, 1, 2, 3, 99}}, Options{}); err == nil {
		t.Fatal("out-of-range node accepted")
	}
}

func TestStaticExecutesQueueSplit(t *testing.T) {
	g, tr := graph.RandomDAG(graph.RandomSpec{Nodes: 40, EdgeProb: 0.15, Seed: 6})
	p, _ := g.Compile()
	// A round-robin split of the queue order is a valid static schedule.
	lists := p.RoundRobinLists(4)
	s, err := NewStatic(p, lists, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Name() != NameStatic || s.Threads() != 4 {
		t.Fatalf("Name/Threads = %s/%d", s.Name(), s.Threads())
	}
	for cycle := 0; cycle < 50; cycle++ {
		tr.Reset()
		s.Execute()
		if err := tr.Check(p); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
	}
}

func TestFromScheduleOrder(t *testing.T) {
	g, tr := graph.RandomDAG(graph.RandomSpec{Nodes: 12, EdgeProb: 0.25, Seed: 4})
	p, _ := g.Compile()

	// Fabricate a valid schedule: nodes in queue order, alternating
	// between two processors, start times equal to queue position.
	proc := make([]int32, p.Len())
	start := make([]float64, p.Len())
	for pos, id := range p.Order {
		proc[id] = int32(pos % 2)
		start[id] = float64(pos)
	}
	lists, err := FromScheduleOrder(p, proc, start, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStatic(p, lists, Options{})
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

	// Validation paths.
	if _, err := FromScheduleOrder(p, proc[:3], start, 2); err == nil {
		t.Fatal("short proc accepted")
	}
	bad := append([]int32(nil), proc...)
	bad[0] = 9
	if _, err := FromScheduleOrder(p, bad, start, 2); err == nil {
		t.Fatal("out-of-range processor accepted")
	}
}
