package graph

import (
	"fmt"
	"slices"
	"testing"
)

// TestFuseRunsEveryBaseNodeOnce holds what Fuse promises an executor:
// running its plan's units in any topological order of that plan — its
// Order or its RankOrder — runs every base node exactly once, after all
// of its base predecessors, and each unit carries the summed design
// Costs of the chain the reference fusion gives it.
func TestFuseRunsEveryBaseNodeOnce(t *testing.T) {
	type input struct {
		name  string
		plan  *Plan
		trace *ExecTrace
		costs []float64
	}
	var inputs []input

	cfg := DefaultConfig()
	cfg.TrackBars = 2
	_, g, err := BuildDJStar(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	// The DJ Star nodes' closures render audio; a traced copy of the
	// plan records instead.
	traced := *p
	tr := NewExecTrace(p.Len())
	traced.Run = make([]func(), p.Len())
	for i := range traced.Run {
		traced.Run[i] = func() { tr.Record(i) }
	}
	design := make([]float64, p.Len())
	for i := range design {
		design[i] = p.Costs[i].MeanUS()
	}
	inputs = append(inputs, input{"djstar", &traced, tr, nil}, input{"djstar design costs", &traced, tr, design})

	for seed := uint64(1); seed <= 120; seed++ {
		rg, tr := RandomDAG(RandomSpec{Nodes: 1 + int(seed%60), EdgeProb: 0.05 + float64(seed%5)*0.05, MaxDeps: int(seed % 3), Seed: seed})
		rp, err := rg.Compile()
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{fmt.Sprintf("random-%d", seed), rp, tr, nil})
	}

	multi := 0
	for _, in := range inputs {
		fp, err := Fuse(in.plan, in.costs, FuseOptions{})
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		_, chains, err := refFuse(in.plan, in.costs)
		if err != nil {
			t.Fatal(err)
		}
		if len(chains) != fp.Len() {
			t.Fatalf("%s: %d units, reference %d", in.name, fp.Len(), len(chains))
		}
		if want := chainCosts(in.plan, chains); !slices.Equal(fp.Costs, want) {
			t.Errorf("%s: unit costs %v, the reference chains' sums %v", in.name, fp.Costs, want)
		}
		for _, c := range chains {
			if len(c) > 1 {
				multi++
			}
		}
		for _, order := range [][]int32{fp.Order, fp.RankOrder} {
			in.trace.Reset()
			for _, u := range order {
				fp.Run[u]()
			}
			if err := in.trace.Check(in.plan); err != nil {
				t.Fatalf("%s: %v", in.name, err)
			}
		}
	}
	if multi < 100 {
		t.Fatalf("vacuous: only %d multi-member units over every input", multi)
	}
}
