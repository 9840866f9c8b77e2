package admission

import (
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
// standard plan and on spin-free seeded DAGs.
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
		m, err := rescon.FromPlan(p, rescon.PaperCostsUS(p))
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range []string{sched.NameBusyWait, sched.NameSleep, sched.NameSleepScan, sched.NameStatic} {
			for _, threads := range []int{2, 3} {
				sim, err := simulate(m, p, strat, threads, ov)
				if err != nil {
					t.Fatal(err)
				}
				ran := make(workerOf, p.Len())
				s, err := sched.New(strat, p, sched.Options{Threads: threads, Observer: ran})
				if err != nil {
					t.Fatal(err)
				}
				resets[i]()
				s.Execute()
				s.Close()
				if !slices.Equal(ran, sim.Proc) {
					t.Errorf("plan %d %s/%d: ran on workers %v, simulated on %v", i, strat, threads, ran, sim.Proc)
				}
			}
		}
	}
}
