package admission

import (
	"fmt"
	"slices"
	"testing"

	"djstar/internal/graph"
	"djstar/internal/rescon"
	"djstar/internal/sched"
)

// workerOf is an observer recording which worker ran each node.
type workerOf []int32

func (workerOf) BeginCycle()                             {}
func (w workerOf) Record(node, worker int32, _, _ int64) { w[node] = worker }
func (workerOf) EndCycle()                               {}

// TestBoundSimulatesExecutedAssignment: for every static strategy the
// bound's simulation puts each node on the worker that runs it, on the
// standard plan and on spin-free seeded DAGs. Four workers on an
// explicit two processors are either simulated on the four lists that
// run, or reported unboundable.
func TestBoundSimulatesExecutedAssignment(t *testing.T) {
	cfg := graph.DefaultConfig()
	cfg.TrackBars = 2
	_, g, err := graph.BuildDJStar(cfg)
	if err != nil {
		t.Fatal(err)
	}
	std, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	plans, resets := []*graph.Plan{std}, []func(){func() {}}
	for seed := uint64(1); seed <= 4; seed++ {
		rg, tr := graph.RandomDAG(graph.RandomSpec{Nodes: 20 + int(seed)*7, EdgeProb: 0.15, MaxDeps: 3, Seed: seed})
		p, err := rg.Compile()
		if err != nil {
			t.Fatal(err)
		}
		plans, resets = append(plans, p), append(resets, tr.Reset)
	}
	ov := Config{}.withDefaults().Overheads
	for i, p := range plans {
		costs := rescon.PaperCostsUS(p)
		m, err := rescon.FromPlan(p, costs)
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range []string{sched.NameBusyWait, sched.NameSleep, sched.NameSleepScan, sched.NameStatic} {
			for _, c := range []struct{ workers, procs int }{{2, 0}, {3, 0}, {4, 2}} {
				name := fmt.Sprintf("plan %d %s: %d workers on %d processors", i, strat, c.workers, c.procs)
				ran := make(workerOf, p.Len())
				s, err := sched.New(strat, p, sched.Options{Threads: c.workers, Observer: ran})
				if err != nil {
					t.Fatal(err)
				}
				resets[i]()
				s.Execute()
				s.Close()
				rep, err := Analyze(p, costs, strat, c.workers, "static", Config{Procs: c.procs})
				if err != nil {
					t.Fatal(err)
				}
				if rep.Unboundable != "" {
					if c.procs == 0 || rep.Fits() || rep.BoundUS != 0 {
						t.Errorf("%s: unboundable report %+v", name, rep)
					}
					continue
				}
				sim, err := simulate(m, p, strat, c.workers, ov)
				if err != nil {
					t.Fatal(err)
				}
				if rep.SimUS != sim.MakespanUS || !slices.Equal(ran, sim.Proc) {
					t.Errorf("%s: ran on workers %v; the bound simulated %v µs, %v µs on %v",
						name, ran, rep.SimUS, sim.MakespanUS, sim.Proc)
				}
			}
		}
	}
}
