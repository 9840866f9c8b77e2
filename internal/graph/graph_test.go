package graph

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddNodeAndEdges(t *testing.T) {
	g := New()
	a := g.AddNode("a", SectionDeckA, nil)
	b := g.AddNode("b", SectionMaster, nil)
	if a != 0 || b != 1 {
		t.Fatalf("IDs = %d,%d", a, b)
	}
	if err := g.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	// Duplicate is silently ignored.
	if err := g.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	if got := g.Node(b).deps; len(got) != 1 || got[0] != a {
		t.Fatalf("deps = %v", got)
	}
	if got := g.Node(a).Succs(); len(got) != 1 || got[0] != b {
		t.Fatalf("succs = %v", got)
	}
	if g.Len() != 2 || len(g.Nodes()) != 2 {
		t.Fatal("Len/Nodes wrong")
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := New()
	a := g.AddNode("a", SectionDeckA, nil)
	if err := g.AddEdge(a, a); err == nil {
		t.Fatal("self-edge accepted")
	}
	if err := g.AddEdge(a, 7); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if err := g.AddEdge(-1, a); err == nil {
		t.Fatal("negative edge accepted")
	}
}

func TestCompileEmptyGraphFails(t *testing.T) {
	if _, err := New().Compile(); err == nil {
		t.Fatal("empty graph compiled")
	}
}

func TestCompileDetectsCycle(t *testing.T) {
	g := New()
	a := g.AddNode("a", SectionDeckA, nil)
	b := g.AddNode("b", SectionDeckA, nil)
	c := g.AddNode("c", SectionDeckA, nil)
	for _, e := range [][2]int{{a, b}, {b, c}, {c, a}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	_, err := g.Compile()
	if !errors.Is(err, ErrCycle) {
		t.Fatalf("err = %v, want ErrCycle", err)
	}
}

func TestCompileDepthAndOrder(t *testing.T) {
	// Diamond: a -> b,c -> d, plus isolated e.
	g := New()
	a := g.AddNode("a", SectionDeckA, nil)
	b := g.AddNode("b", SectionDeckA, nil)
	c := g.AddNode("c", SectionDeckA, nil)
	d := g.AddNode("d", SectionDeckA, nil)
	e := g.AddNode("e", SectionControl, nil)
	mustEdge(g, a, b)
	mustEdge(g, a, c)
	mustEdge(g, b, d)
	mustEdge(g, c, d)

	p, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	wantDepth := []int32{0, 1, 1, 2, 0}
	for i, w := range wantDepth {
		if p.Depth[i] != w {
			t.Fatalf("depth[%d] = %d, want %d", i, p.Depth[i], w)
		}
	}
	// Order: depth 0 first (a, e by ID), then b, c, then d.
	want := []int32{int32(a), int32(e), int32(b), int32(c), int32(d)}
	for i, w := range want {
		if p.Order[i] != w {
			t.Fatalf("order = %v, want %v", p.Order, want)
		}
	}
	if p.CriticalPathLen != 3 {
		t.Fatalf("CriticalPathLen = %d, want 3", p.CriticalPathLen)
	}
	if err := validateOrder(p); err != nil {
		t.Fatal(err)
	}
	srcs := p.Sources()
	if len(srcs) != 2 || srcs[0] != int32(a) || srcs[1] != int32(e) {
		t.Fatalf("Sources = %v", srcs)
	}
	if got := p.SourcesBySection[SectionControl]; len(got) != 1 || got[0] != int32(e) {
		t.Fatalf("SourcesBySection = %v", p.SourcesBySection)
	}
}

// validateOrder checks the queue-order invariant the sequential
// implementation relies on ("nodes in the same column do not carry
// dependencies to other nodes in the same column"): every dependency must
// appear strictly earlier in Order.
func validateOrder(p *Plan) error {
	posOf := make([]int32, p.Len())
	for pos, id := range p.Order {
		posOf[id] = int32(pos)
	}
	for id := int32(0); id < int32(p.Len()); id++ {
		for _, d := range p.PredsOf(id) {
			if posOf[d] >= posOf[id] {
				return fmt.Errorf("graph: order violates dependency %s -> %s", p.Names[d], p.Names[id])
			}
		}
	}
	return nil
}

func TestValidateCatchesBadOrder(t *testing.T) {
	g := New()
	a := g.AddNode("a", SectionDeckA, nil)
	b := g.AddNode("b", SectionDeckA, nil)
	mustEdge(g, a, b)
	p, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	p.Order[0], p.Order[1] = p.Order[1], p.Order[0]
	if err := validateOrder(p); err == nil {
		t.Fatal("validateOrder accepted dependency-violating order")
	}
}

func TestOrderRespectsDepsProperty(t *testing.T) {
	f := func(seed uint64, sizeRaw uint8, probRaw uint8) bool {
		size := 1 + int(sizeRaw)%60
		prob := float64(probRaw) / 255 * 0.4
		g, _ := RandomDAG(RandomSpec{Nodes: size, EdgeProb: prob, Seed: seed})
		p, err := g.Compile()
		if err != nil {
			return false
		}
		return validateOrder(p) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDepthIsLongestPathProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g, _ := RandomDAG(RandomSpec{Nodes: 40, EdgeProb: 0.15, Seed: seed})
		p, err := g.Compile()
		if err != nil {
			return false
		}
		// depth(n) = 0 for sources, else 1 + max(depth(pred)).
		for i := 0; i < p.Len(); i++ {
			if len(p.PredsOf(int32(i))) == 0 {
				if p.Depth[i] != 0 {
					return false
				}
				continue
			}
			maxPred := int32(-1)
			for _, d := range p.PredsOf(int32(i)) {
				if p.Depth[d] > maxPred {
					maxPred = p.Depth[d]
				}
			}
			if p.Depth[i] != maxPred+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSectionStrings(t *testing.T) {
	names := []string{"deck-a", "deck-b", "deck-c", "deck-d", "master", "control"}
	for i, want := range names {
		if got := Section(i).String(); got != want {
			t.Fatalf("Section(%d) = %q, want %q", i, got, want)
		}
	}
	if Section(99).String() != "unknown" {
		t.Fatal("unknown section name")
	}
	if DeckSection(2) != SectionDeckC {
		t.Fatal("DeckSection(2) wrong")
	}
}

func TestExecTraceDetectsDoubleRun(t *testing.T) {
	tr := NewExecTrace(2)
	tr.Record(0)
	defer func() {
		if recover() == nil {
			t.Fatal("double Record did not panic")
		}
	}()
	tr.Record(0)
}

func TestExecTraceCheck(t *testing.T) {
	g := New()
	a := g.AddNode("a", SectionDeckA, nil)
	b := g.AddNode("b", SectionDeckA, nil)
	mustEdge(g, a, b)
	p, _ := g.Compile()

	tr := NewExecTrace(2)
	// Missing node.
	if err := tr.Check(p); err == nil {
		t.Fatal("Check accepted unexecuted nodes")
	}
	// Wrong order.
	tr.Record(b)
	tr.Record(a)
	if err := tr.Check(p); err == nil || !strings.Contains(err.Error(), "before dependency") {
		t.Fatalf("Check = %v, want dependency violation", err)
	}
	// Correct order.
	tr.Reset()
	tr.Record(a)
	tr.Record(b)
	if err := tr.Check(p); err != nil {
		t.Fatal(err)
	}
}

func TestSpinAndCalibration(t *testing.T) {
	Spin(0) // no-op
	cal := Calibrate()
	if cal.NanosPerUnit <= 0 {
		t.Fatalf("NanosPerUnit = %v", cal.NanosPerUnit)
	}
	units := cal.UnitsForMicros(100)
	if units <= 0 {
		t.Fatalf("UnitsForMicros(100) = %d", units)
	}
	if cal.UnitsForMicros(0) != 0 || cal.UnitsForMicros(-5) != 0 {
		t.Fatal("non-positive targets must give 0 units")
	}
	if (Calibration{}).UnitsForMicros(10) != 0 {
		t.Fatal("uncalibrated UnitsForMicros must give 0")
	}
}

func TestLoadRunActiveCostsMore(t *testing.T) {
	cal := Calibrate()
	l := NewLoad(Cost{BaseUS: 50, DataUS: 200}, cal, 1)
	timeIt := func(active bool) float64 {
		const reps = 20
		best := 1e18
		for r := 0; r < reps; r++ {
			start := nowNanos()
			l.RunSince(start, active)
			if el := float64(nowNanos() - start); el < best {
				best = el
			}
		}
		return best
	}
	idle := timeIt(false)
	active := timeIt(true)
	if active < idle*2 {
		t.Fatalf("active load %.0fns not clearly above idle %.0fns", active, idle)
	}
}

func TestZeroScaleLoadIsFree(t *testing.T) {
	l := NewLoad(CostFX, Calibration{NanosPerUnit: 10}, 0)
	// Must not spin at all; just ensure it runs instantly and untimed.
	l.RunSince(nowNanos(), true)
	l.RunSince(nowNanos(), false)
}

func TestWriteDOT(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TrackBars = 2
	_, g, err := BuildDJStar(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := g.WriteDOT(&sb, "djstar"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"digraph", "cluster_deck-a", "Mixer", "->", "}"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q", want)
		}
	}
	// One edge line per dependency.
	edges := strings.Count(out, "->")
	p, _ := g.Compile()
	wantEdges := len(p.PredList)
	if edges != wantEdges {
		t.Fatalf("DOT has %d edges, want %d", edges, wantEdges)
	}
}
