package sched

import (
	"errors"
	"testing"

	"djstar/internal/graph"
)

// TestPoolTypedSentinels: Attach failures are distinguishable with
// errors.Is — callers (the engine's admission gate, the fleet) branch
// on pool-full vs pool-closed instead of string matching.
func TestPoolTypedSentinels(t *testing.T) {
	p, err := NewPool(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := graph.RandomDAG(graph.RandomSpec{Nodes: 5, EdgeProb: 0.2, Seed: 7})
	plan, _ := g.Compile()
	s, err := p.Attach(plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Attach(plan, Options{})
	if !errors.Is(err, ErrPoolFull) {
		t.Fatalf("full pool err = %v, want ErrPoolFull", err)
	}
	if errors.Is(err, ErrPoolClosed) {
		t.Fatal("full and closed sentinels overlap")
	}
	s.Close()
	p.Close()
	if _, err := p.Attach(plan, Options{}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("closed pool err = %v, want ErrPoolClosed", err)
	}
}
