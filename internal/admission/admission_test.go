package admission

import (
	"errors"
	"math"
	"testing"

	"djstar/internal/graph"
	"djstar/internal/rescon"
)

// buildChain compiles a linear chain with the given per-node costs; the
// costs are returned alongside (node i costs costsUS[i]).
func buildChain(t *testing.T, costsUS []float64) (*graph.Plan, []float64) {
	t.Helper()
	g := graph.New()
	prev := -1
	for range costsUS {
		id := g.AddNode("N", graph.SectionMaster, nil)
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
	return p, costsUS
}

// buildDiamond compiles A -> {B, C} -> D with costs 10, 20, 30, 10.
func buildDiamond(t *testing.T) (*graph.Plan, []float64) {
	t.Helper()
	g := graph.New()
	a := g.AddNode("A", graph.SectionMaster, nil)
	b := g.AddNode("B", graph.SectionMaster, nil)
	c := g.AddNode("C", graph.SectionMaster, nil)
	d := g.AddNode("D", graph.SectionMaster, nil)
	for _, e := range [][2]int{{a, b}, {a, c}, {b, d}, {c, d}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	p, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return p, []float64{10, 20, 30, 10}
}

func TestAnalyzeSequential(t *testing.T) {
	plan, costs := buildChain(t, []float64{10, 20, 30, 40})
	cfg := Config{PeriodUS: 1000, Margin: 1, BaseUS: -1, Overheads: rescon.StrategyOverheads{CheckUS: 0.5, WakeUS: 10}}
	r, err := Analyze(plan, costs, "seq", 1, "static", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalWorkUS != 100 || r.CritPathUS != 100 {
		t.Fatalf("W=%v CP=%v, want 100/100", r.TotalWorkUS, r.CritPathUS)
	}
	want := 100 + 4*0.5 // W + n·check
	if math.Abs(r.GraphBoundUS-want) > 1e-9 || math.Abs(r.BoundUS-want) > 1e-9 {
		t.Fatalf("seq bound = %v (graph %v), want %v", r.BoundUS, r.GraphBoundUS, want)
	}
	if !r.Fits() || r.HeadroomUS <= 0 {
		t.Fatalf("bound %v should fit envelope %v (headroom %v)", r.BoundUS, r.EnvelopeUS, r.HeadroomUS)
	}
}

func TestAnalyzeGrahamForWorkConserving(t *testing.T) {
	plan, costs := buildDiamond(t)
	cfg := Config{PeriodUS: 1000, Margin: 1, BaseUS: -1, Overheads: rescon.StrategyOverheads{CheckUS: 0.5, WakeUS: 10}}
	r, err := Analyze(plan, costs, "ws", 2, "static", cfg)
	if err != nil {
		t.Fatal(err)
	}
	// W = 70, CP = A+C+D = 50; Graham = 50 + 20/2 + 4·0.5/2 = 61.
	if r.CritPathUS != 50 {
		t.Fatalf("CP = %v, want 50", r.CritPathUS)
	}
	if math.Abs(r.GrahamUS-61) > 1e-9 || r.GraphBoundUS != r.GrahamUS {
		t.Fatalf("graham = %v, graph bound = %v, want 61", r.GrahamUS, r.GraphBoundUS)
	}
	// The bound must dominate the near-optimal list schedule.
	if r.ListUS > r.GraphBoundUS {
		t.Fatalf("list schedule %v exceeds bound %v", r.ListUS, r.GraphBoundUS)
	}
}

func TestAnalyzeStaticStrategiesUseSimulation(t *testing.T) {
	plan, costs := buildDiamond(t)
	cfg := Config{PeriodUS: 1000, Margin: 1, BaseUS: -1}
	for _, strat := range []string{"busy", "static", "sleep", "sleepscan"} {
		r, err := Analyze(plan, costs, strat, 2, "static", cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.SimUS == 0 {
			t.Fatalf("%s: no simulation makespan", strat)
		}
		if r.GraphBoundUS < r.GrahamUS || r.GraphBoundUS < r.SimUS {
			t.Fatalf("%s: bound %v must be max(graham %v, sim %v)", strat, r.GraphBoundUS, r.GrahamUS, r.SimUS)
		}
		// The simulated round-robin makespan can never beat the critical path.
		if r.SimUS < r.CritPathUS {
			t.Fatalf("%s: sim %v below critical path %v", strat, r.SimUS, r.CritPathUS)
		}
	}
}

func TestMarginAndBaseEnterBound(t *testing.T) {
	plan, costs := buildChain(t, []float64{100})
	cfg := Config{PeriodUS: 1000, Margin: 2, BaseUS: 50, Overheads: rescon.StrategyOverheads{CheckUS: 1, WakeUS: 10}}
	r, err := Analyze(plan, costs, "seq", 1, "static", cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * (50 + 101.0)
	if math.Abs(r.BoundUS-want) > 1e-9 {
		t.Fatalf("bound = %v, want %v", r.BoundUS, want)
	}
	if math.Abs(r.UtilRatio-want/1000) > 1e-9 {
		t.Fatalf("util = %v, want %v", r.UtilRatio, want/1000)
	}
}

func TestShedCostsZeroesKinds(t *testing.T) {
	g := graph.New()
	audio := g.AddNode("Mix", graph.SectionMaster, nil)
	fx := g.AddNode("FX", graph.SectionMaster, nil)
	meter := g.AddNode("VU", graph.SectionMaster, nil)
	ctrl := g.AddNode("Beat", graph.SectionControl, nil)
	g.Node(fx).Kind = graph.KindFX
	g.Node(meter).Kind = graph.KindMeter
	g.Node(ctrl).Kind = graph.KindControl
	plan, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	costs := []float64{10, 20, 30, 40}
	ui := ShedCosts(plan, costs, 1)
	if ui[audio] != 10 || ui[fx] != 20 || ui[meter] != 0 || ui[ctrl] != 0 {
		t.Fatalf("shed-UI costs = %v", ui)
	}
	both := ShedCosts(plan, costs, 2)
	if both[audio] != 10 || both[fx] != 0 || both[meter] != 0 || both[ctrl] != 0 {
		t.Fatalf("shed-UI+FX costs = %v", both)
	}
	if costs[2] != 30 {
		t.Fatal("ShedCosts must not mutate its input")
	}
}

func TestDecideLadder(t *testing.T) {
	g := graph.New()
	mix := g.AddNode("Mix", graph.SectionMaster, nil)
	meter := g.AddNode("VU", graph.SectionMaster, nil)
	fx := g.AddNode("FX", graph.SectionMaster, nil)
	g.Node(meter).Kind = graph.KindMeter
	g.Node(fx).Kind = graph.KindFX
	if err := g.AddEdge(mix, meter); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(mix, fx); err != nil {
		t.Fatal(err)
	}
	plan, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	costs := []float64{100, 80, 60} // full seq work 240, minus meter 160, minus meter+fx 100
	base := Config{Margin: 1, BaseUS: -1, Overheads: rescon.StrategyOverheads{CheckUS: 1e-9, WakeUS: 1e-9}}

	cfg := base
	cfg.PeriodUS = 500
	d, err := Decide(plan, costs, "seq", 1, "static", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.Verdict != VerdictAdmit || d.PreShed() != "" {
		t.Fatalf("envelope 500: verdict %v preshed %q, want admit", d.Verdict, d.PreShed())
	}

	cfg.PeriodUS = 200 // full 240 over; shed meters 160 fits
	d, err = Decide(plan, costs, "seq", 1, "static", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.Verdict != VerdictDegraded || d.Rung != 1 || d.PreShed() != "meters+control" {
		t.Fatalf("envelope 200: verdict %v rung %d, want degraded meters-only", d.Verdict, d.Rung)
	}
	if d.Admitted.BoundUS >= d.Full.BoundUS {
		t.Fatalf("degraded bound %v must undercut full bound %v", d.Admitted.BoundUS, d.Full.BoundUS)
	}

	cfg.PeriodUS = 120 // meters+fx shed leaves 100 — deepest rung fits
	d, err = Decide(plan, costs, "seq", 1, "static", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.Verdict != VerdictDegraded || d.Rung != 2 || d.PreShed() != "meters+control+fx" {
		t.Fatalf("envelope 120: verdict %v rung %d, want degraded with fx shed", d.Verdict, d.Rung)
	}

	cfg.PeriodUS = 50 // nothing fits
	d, err = Decide(plan, costs, "seq", 1, "static", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.Verdict != VerdictRefuse {
		t.Fatalf("envelope 50: verdict %v, want refuse", d.Verdict)
	}
}

func TestControllerAggregate(t *testing.T) {
	plan, costs := buildDiamond(t) // W = 70, CP = 50
	cfg := Config{PeriodUS: 150, Margin: 1, BaseUS: -1, Overheads: rescon.StrategyOverheads{CheckUS: 1e-9, WakeUS: 1e-9}}
	rep, err := Analyze(plan, costs, "pool", 2, "static", cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctl := NewController(2, cfg)
	// Session A alone: 50 + 20/2 = 60 ≤ 150.
	if err := ctl.TryAdmit("a", rep); err != nil {
		t.Fatalf("first session refused: %v", err)
	}
	// Session B: each session now bounds at 50 + (140-50)/2 = 95 ≤ 150.
	if err := ctl.TryAdmit("b", rep); err != nil {
		t.Fatalf("second session refused: %v", err)
	}
	// Session C: 50 + (210-50)/2 = 130 ≤ 150 still fits.
	if err := ctl.TryAdmit("c", rep); err != nil {
		t.Fatalf("third session refused: %v", err)
	}
	// Session D: 50 + (280-50)/2 = 165 > 150 — refused, and the sentinel
	// must be recoverable with errors.Is.
	err = ctl.TryAdmit("d", rep)
	if err == nil {
		t.Fatal("fourth session admitted, want refusal")
	}
	if !errors.Is(err, ErrOverBudget) {
		t.Fatalf("refusal = %v, want errors.Is(_, ErrOverBudget)", err)
	}
	if got := len(ctl.Sessions()); got != 3 {
		t.Fatalf("sessions = %d, want 3", got)
	}
	// Releasing one makes room again.
	ctl.Release("b")
	if err := ctl.TryAdmit("d", rep); err != nil {
		t.Fatalf("post-release admit refused: %v", err)
	}
	// Duplicate IDs are rejected without disturbing the registration.
	if err := ctl.TryAdmit("a", rep); err == nil {
		t.Fatal("duplicate session ID admitted")
	}
	for _, s := range ctl.Sessions() {
		if !s.Fits {
			t.Fatalf("admitted session %q over budget: %+v", s.ID, s)
		}
	}
}

func TestGrahamBoundBasics(t *testing.T) {
	if b := rescon.GrahamBound(100, 40, 2); b != 70 {
		t.Fatalf("GrahamBound(100,40,2) = %v, want 70", b)
	}
	if b := rescon.GrahamBound(100, 100, 4); b != 100 {
		t.Fatalf("pure chain: %v, want 100", b)
	}
	// Defensive: CP larger than W (inconsistent inputs) must not go
	// below CP.
	if b := rescon.GrahamBound(50, 80, 2); b != 80 {
		t.Fatalf("clamped surplus: %v, want 80", b)
	}
}
