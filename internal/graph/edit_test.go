package graph

import (
	"errors"
	"fmt"
	"testing"
)

// lineGraph builds a -> b -> c with per-node run counters.
func lineGraph(t *testing.T) (*Graph, []int) {
	t.Helper()
	g := New()
	runs := make([]int, 3)
	for i, name := range []string{"a", "b", "c"} {
		i := i
		g.AddNode(name, SectionMaster, func() { runs[i]++ })
	}
	mustEdge(g, 0, 1)
	mustEdge(g, 1, 2)
	return g, runs
}

// graphShape snapshots a graph's names and edge set for mutation checks.
func graphShape(g *Graph) string {
	s := ""
	for i := 0; i < g.Len(); i++ {
		s += fmt.Sprintf("%d:%s%v;", i, g.Node(i).Name, g.Node(i).Succs())
	}
	return s
}

func TestEditSetAddNodeAndEdges(t *testing.T) {
	g, _ := lineGraph(t)
	before := graphShape(g)

	es := &EditSet{}
	ran := 0
	x := es.AddNode(NodeSpec{Name: "x", Run: func() { ran++ }})
	es.AddEdge(NodeRef(0), x)
	es.AddEdge(x, NodeRef(2))

	g2, plan, r, err := g.Apply(es)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Len() != 4 || plan.Len() != 4 {
		t.Fatalf("got %d nodes, want 4", g2.Len())
	}
	// Survivors keep their IDs in order; the added node follows.
	for old := 0; old < 3; old++ {
		if r.OldToNew[old] != int32(old) {
			t.Fatalf("OldToNew[%d] = %d, want %d", old, r.OldToNew[old], old)
		}
	}
	newX := g2.NodeByName("x")
	if newX < 0 || r.NewToOld[newX] != -1 || r.StateSrc[newX] != -1 {
		t.Fatalf("added node remap wrong: id=%d NewToOld=%v StateSrc=%v", newX, r.NewToOld, r.StateSrc)
	}
	// The new node's edges made it into the plan.
	preds := plan.PredsOf(int32(newX))
	if len(preds) != 1 || preds[0] != 0 {
		t.Fatalf("x preds = %v, want [0]", preds)
	}
	if got := graphShape(g); got != before {
		t.Fatalf("Apply mutated the source graph:\n before %s\n after  %s", before, got)
	}
}

func TestEditSetRemoveNode(t *testing.T) {
	g, _ := lineGraph(t)
	es := &EditSet{}
	es.RemoveNode(NodeRef(1))

	g2, plan, r, err := g.Apply(es)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Len() != 2 {
		t.Fatalf("got %d nodes, want 2", plan.Len())
	}
	if r.OldToNew[1] != -1 {
		t.Fatalf("removed node still mapped: %v", r.OldToNew)
	}
	// a and c survive, compacted, and the b edges are gone (RemoveNode
	// detaches, it does not bridge).
	ia, ic := g2.NodeByName("a"), g2.NodeByName("c")
	if ia < 0 || ic < 0 {
		t.Fatalf("survivors missing: %v %v", ia, ic)
	}
	if len(plan.PredsOf(int32(ic))) != 0 {
		t.Fatalf("c should be orphaned after removing b, preds=%v", plan.PredsOf(int32(ic)))
	}
}

func TestEditSetReplaceChainStatePairing(t *testing.T) {
	// p -> d1 -> d2 -> s, replace [d1 d2] with one new node that should
	// inherit d1's state via StateSrc.
	g := New()
	g.AddNode("p", SectionMaster, nil)
	g.AddNode("d1", SectionMaster, nil)
	g.AddNode("d2", SectionMaster, nil)
	g.AddNode("s", SectionMaster, nil)
	g.Node(1).State = "state-d1"
	g.Node(2).State = "state-d2"
	mustEdge(g, 0, 1)
	mustEdge(g, 1, 2)
	mustEdge(g, 2, 3)

	var migrated any
	es := &EditSet{}
	refs := es.ReplaceChain([]NodeRef{1, 2}, NodeSpec{
		Name:    "dNew",
		Migrate: func(prev any) { migrated = prev },
	})
	if len(refs) != 1 || refs[0] >= 0 {
		t.Fatalf("refs = %v", refs)
	}

	g2, plan, r, err := g.Apply(es)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Len() != 3 {
		t.Fatalf("got %d nodes, want 3", plan.Len())
	}
	nn := g2.NodeByName("dNew")
	if nn < 0 {
		t.Fatal("dNew missing")
	}
	if r.StateSrc[nn] != 1 {
		t.Fatalf("StateSrc[dNew] = %d, want 1 (d1)", r.StateSrc[nn])
	}
	// Rewiring: p -> dNew -> s.
	if preds := plan.PredsOf(int32(nn)); len(preds) != 1 || g2.Node(int(preds[0])).Name != "p" {
		t.Fatalf("dNew preds = %v", preds)
	}
	ns := g2.NodeByName("s")
	if preds := plan.PredsOf(int32(ns)); len(preds) != 1 || int(preds[0]) != nn {
		t.Fatalf("s preds = %v, want [dNew]", preds)
	}
	// Simulate the engine's migration step.
	if fn := plan.Migrate[nn]; fn != nil {
		fn(g.Node(int(r.StateSrc[nn])).State)
	}
	if migrated != "state-d1" {
		t.Fatalf("migrated = %v, want state-d1", migrated)
	}
	_ = migrated
}

func TestEditSetReplaceChainExcision(t *testing.T) {
	g, _ := lineGraph(t)
	es := &EditSet{}
	es.ReplaceChain([]NodeRef{1}) // excise b, bridge a -> c

	g2, plan, _, err := g.Apply(es)
	if err != nil {
		t.Fatal(err)
	}
	ia, ic := g2.NodeByName("a"), g2.NodeByName("c")
	if preds := plan.PredsOf(int32(ic)); len(preds) != 1 || int(preds[0]) != ia {
		t.Fatalf("bridge missing: c preds = %v", preds)
	}
}

func TestEditSetErrors(t *testing.T) {
	cases := []struct {
		name  string
		build func(es *EditSet)
	}{
		{"dangling ref", func(es *EditSet) { es.RemoveNode(99) }},
		{"undefined added ref", func(es *EditSet) { es.AddEdge(NodeRef(-5), NodeRef(0)) }},
		{"duplicate edge", func(es *EditSet) { es.AddEdge(0, 1) }},
		{"self edge", func(es *EditSet) { es.AddEdge(1, 1) }},
		{"missing edge", func(es *EditSet) { es.RemoveEdge(0, 2) }},
		{"use after remove", func(es *EditSet) {
			es.RemoveNode(1)
			es.AddEdge(0, 1)
		}},
		{"nameless add", func(es *EditSet) { es.AddNode(NodeSpec{}) }},
		{"chain break", func(es *EditSet) { es.ReplaceChain([]NodeRef{0, 2}) }},
		{"chain dup", func(es *EditSet) { es.ReplaceChain([]NodeRef{1, 1}) }},
		{"empty chain", func(es *EditSet) { es.ReplaceChain(nil) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, _ := lineGraph(t)
			before := graphShape(g)
			es := &EditSet{}
			tc.build(es)
			if _, _, _, err := g.Apply(es); !errors.Is(err, ErrBadEdit) {
				t.Fatalf("err = %v, want ErrBadEdit", err)
			}
			if got := graphShape(g); got != before {
				t.Fatalf("failed Apply mutated the graph")
			}
		})
	}
}

func TestEditSetCycleRejected(t *testing.T) {
	g, _ := lineGraph(t)
	es := &EditSet{}
	es.AddEdge(NodeRef(2), NodeRef(0)) // closes a -> b -> c -> a
	if _, _, _, err := g.Apply(es); err == nil {
		t.Fatal("cycle-closing edit accepted")
	}
}

func TestEditSetRemoveAllRejected(t *testing.T) {
	g, _ := lineGraph(t)
	es := &EditSet{}
	for i := 0; i < 3; i++ {
		es.RemoveNode(NodeRef(i))
	}
	if _, _, _, err := g.Apply(es); err == nil {
		t.Fatal("edit emptying the graph accepted")
	}
}

func TestRemapCompose(t *testing.T) {
	g, _ := lineGraph(t)

	// Epoch A -> B: remove b.
	es1 := &EditSet{}
	es1.RemoveNode(NodeRef(1))
	g2, _, r1, err := g.Apply(es1)
	if err != nil {
		t.Fatal(err)
	}
	// Epoch B -> C: add x feeding c.
	es2 := &EditSet{}
	x := es2.AddNode(NodeSpec{Name: "x"})
	es2.AddEdge(x, NodeRef(g2.NodeByName("c")))
	g3, _, r2, err := g2.Apply(es2)
	if err != nil {
		t.Fatal(err)
	}

	r := r1.Compose(r2)
	if len(r.OldToNew) != 3 || len(r.NewToOld) != g3.Len() {
		t.Fatalf("composed sizes: %d/%d", len(r.OldToNew), len(r.NewToOld))
	}
	if r.OldToNew[1] != -1 {
		t.Fatalf("b should stay removed across composition: %v", r.OldToNew)
	}
	// a and c map A -> C directly and invert correctly.
	for _, name := range []string{"a", "c"} {
		oldID := g.NodeByName(name)
		newID := r.OldToNew[oldID]
		if newID < 0 || g3.Node(int(newID)).Name != name {
			t.Fatalf("%s lost across composition: %v", name, r.OldToNew)
		}
		if r.NewToOld[newID] != int32(oldID) || r.StateSrc[newID] != int32(oldID) {
			t.Fatalf("%s inverse mapping wrong", name)
		}
	}
	if nx := g3.NodeByName("x"); r.NewToOld[nx] != -1 || r.StateSrc[nx] != -1 {
		t.Fatalf("x should have no A-epoch source: %v %v", r.NewToOld, r.StateSrc)
	}
}

// checkRemapInvariants verifies the structural contract between a source
// graph, an edit result and its remap. Shared by the fuzz target.
func checkRemapInvariants(g, g2 *Graph, plan *Plan, r *Remap) error {
	if g2.Len() != plan.Len() {
		return fmt.Errorf("graph/plan size mismatch: %d vs %d", g2.Len(), plan.Len())
	}
	if len(r.OldToNew) != g.Len() || len(r.NewToOld) != g2.Len() || len(r.StateSrc) != g2.Len() {
		return fmt.Errorf("remap sizes wrong: %d/%d/%d for %d->%d",
			len(r.OldToNew), len(r.NewToOld), len(r.StateSrc), g.Len(), g2.Len())
	}
	for old, nn := range r.OldToNew {
		if nn < 0 {
			continue
		}
		if int(nn) >= g2.Len() {
			return fmt.Errorf("OldToNew[%d] = %d out of range", old, nn)
		}
		if r.NewToOld[nn] != int32(old) {
			return fmt.Errorf("OldToNew/NewToOld not inverse at old %d", old)
		}
		if g.Node(old).Name != g2.Node(int(nn)).Name {
			return fmt.Errorf("survivor renamed: %q -> %q", g.Node(old).Name, g2.Node(int(nn)).Name)
		}
	}
	for nn, old := range r.NewToOld {
		if old >= 0 && r.OldToNew[old] != int32(nn) {
			return fmt.Errorf("NewToOld/OldToNew not inverse at new %d", nn)
		}
	}
	for nn, src := range r.StateSrc {
		if src >= 0 && int(src) >= g.Len() {
			return fmt.Errorf("StateSrc[%d] = %d out of range", nn, src)
		}
	}
	return nil
}

// FuzzEditSet drives random op sequences (decoded from the fuzz input)
// against a seeded random DAG and checks that Apply either rejects the
// set or produces a compiled plan whose remap satisfies the epoch
// contract — and never mutates the source graph either way.
func FuzzEditSet(f *testing.F) {
	f.Add([]byte{1, 0, 1, 2}, uint64(1))
	f.Add([]byte{0, 3, 2, 0, 4, 1}, uint64(7))
	f.Add([]byte{4, 2, 1, 3, 0, 0, 5}, uint64(42))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		g, _ := RandomDAG(RandomSpec{Nodes: 8, EdgeProb: 0.3, Seed: seed})
		before := graphShape(g)

		es := &EditSet{}
		adds := 0
		// ref decodes one operand byte into a NodeRef over the base nodes
		// plus any nodes this set has added so far.
		ref := func(b byte) NodeRef {
			total := g.Len() + adds
			v := int(b) % total
			if v < g.Len() {
				return NodeRef(v)
			}
			return NodeRef(-(v - g.Len() + 1))
		}
		for i := 0; i+1 < len(data) && es.Len() < 16; {
			op := data[i] % 5
			switch op {
			case 0:
				es.AddNode(NodeSpec{Name: fmt.Sprintf("add%d", adds)})
				adds++
				i++
			case 1:
				es.RemoveNode(ref(data[i+1]))
				i += 2
			case 2, 3:
				if i+2 >= len(data) {
					i = len(data)
					break
				}
				if op == 2 {
					es.AddEdge(ref(data[i+1]), ref(data[i+2]))
				} else {
					es.RemoveEdge(ref(data[i+1]), ref(data[i+2]))
				}
				i += 3
			case 4:
				n := int(data[i+1])%3 + 1
				chain := make([]NodeRef, 0, n)
				for j := 0; j < n && i+2+j < len(data); j++ {
					chain = append(chain, ref(data[i+2+j]))
				}
				if len(chain) > 0 {
					r := es.ReplaceChain(chain, NodeSpec{Name: fmt.Sprintf("rep%d", adds)})
					adds += len(r)
				}
				i += 2 + n
			}
		}

		g2, plan, r, err := g.Apply(es)
		if err != nil {
			if g2 != nil || plan != nil || r != nil {
				t.Fatalf("failed Apply returned non-nil results: %v", err)
			}
		} else if ierr := checkRemapInvariants(g, g2, plan, r); ierr != nil {
			t.Fatal(ierr)
		}
		if got := graphShape(g); got != before {
			t.Fatalf("Apply mutated the source graph:\n before %s\n after  %s", before, got)
		}
	})
}
