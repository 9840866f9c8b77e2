package rescon

import (
	"math"
	"testing"
	"testing/quick"

	"djstar/internal/graph"
)

// diamond builds a -> {b, c} -> d with the given durations.
func diamond(t *testing.T, durs [4]float64) (*Model, *graph.Plan) {
	t.Helper()
	g := graph.New()
	a := g.AddNode("a", graph.SectionDeckA, nil)
	b := g.AddNode("b", graph.SectionDeckA, nil)
	c := g.AddNode("c", graph.SectionDeckA, nil)
	d := g.AddNode("d", graph.SectionDeckA, nil)
	for _, e := range [][2]int{{a, b}, {a, c}, {b, d}, {c, d}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	p, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	m, err := FromPlan(p, durs[:])
	if err != nil {
		t.Fatal(err)
	}
	return m, p
}

func TestFromPlanValidation(t *testing.T) {
	g := graph.New()
	g.AddNode("a", graph.SectionDeckA, nil)
	p, _ := g.Compile()
	if _, err := FromPlan(p, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := FromPlan(p, []float64{-1}); err == nil {
		t.Fatal("negative duration accepted")
	}
	if _, err := FromPlan(p, []float64{math.NaN()}); err == nil {
		t.Fatal("NaN duration accepted")
	}
	m, err := FromPlan(p, []float64{5})
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 1 || m.Name(0) != "a" || m.dur[0] != 5 || m.TotalWork() != 5 {
		t.Fatal("accessors wrong")
	}
}

func TestEarliestStartDiamond(t *testing.T) {
	m, _ := diamond(t, [4]float64{10, 20, 30, 5})
	r := m.EarliestStart()
	// a: 0-10, b: 10-30, c: 10-40, d: 40-45.
	if r.Start[3] != 40 || r.Finish[3] != 45 {
		t.Fatalf("d window = %v-%v", r.Start[3], r.Finish[3])
	}
	if r.MakespanUS != 45 {
		t.Fatalf("makespan = %v, want 45", r.MakespanUS)
	}
	if r.PeakConcurrency != 2 {
		t.Fatalf("peak = %d, want 2 (b and c overlap)", r.PeakConcurrency)
	}
}

func TestListScheduleRespectsResourceLimit(t *testing.T) {
	m, _ := diamond(t, [4]float64{10, 20, 30, 5})
	r, err := m.ListSchedule(1)
	if err != nil {
		t.Fatal(err)
	}
	// One processor: makespan = total work.
	if r.MakespanUS != 65 {
		t.Fatalf("1-proc makespan = %v, want 65", r.MakespanUS)
	}
	if r.PeakConcurrency != 1 {
		t.Fatalf("1-proc peak = %d", r.PeakConcurrency)
	}

	r2, err := m.ListSchedule(2)
	if err != nil {
		t.Fatal(err)
	}
	// Two processors: b and c run in parallel -> 10 + 30 + 5 = 45.
	if r2.MakespanUS != 45 {
		t.Fatalf("2-proc makespan = %v, want 45", r2.MakespanUS)
	}
	if _, err := m.ListSchedule(0); err == nil {
		t.Fatal("0 procs accepted")
	}
}

func TestListScheduleNeverBeatsCriticalPath(t *testing.T) {
	f := func(seed uint64) bool {
		g, _ := graph.RandomDAG(graph.RandomSpec{Nodes: 30, EdgeProb: 0.15, Seed: seed})
		p, err := g.Compile()
		if err != nil {
			return false
		}
		rng := seed
		durs := make([]float64, p.Len())
		for i := range durs {
			rng = rng*6364136223846793005 + 1442695040888963407
			durs[i] = 1 + float64(rng%97)
		}
		m, err := FromPlan(p, durs)
		if err != nil {
			return false
		}
		cp := m.EarliestStart().MakespanUS
		for _, procs := range []int{1, 2, 4} {
			r, err := m.ListSchedule(procs)
			if err != nil {
				return false
			}
			lower := math.Max(cp, m.TotalWork()/float64(procs))
			if r.MakespanUS < lower-1e-9 {
				return false // impossible schedule
			}
			if err := checkScheduleValid(m, r, procs); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// checkScheduleValid asserts dependency and resource feasibility.
func checkScheduleValid(m *Model, r *Result, procs int) error {
	for i := 0; i < m.Len(); i++ {
		for _, d := range m.plan.PredsOf(int32(i)) {
			if r.Start[i] < r.Finish[d]-1e-9 {
				return errf("task %d starts before pred %d finishes", i, d)
			}
		}
		if int(r.Proc[i]) >= procs {
			return errf("task %d on proc %d of %d", i, r.Proc[i], procs)
		}
	}
	// No two tasks overlap on one processor.
	for i := 0; i < m.Len(); i++ {
		for j := i + 1; j < m.Len(); j++ {
			if r.Proc[i] != r.Proc[j] {
				continue
			}
			if r.Start[i] < r.Finish[j]-1e-9 && r.Start[j] < r.Finish[i]-1e-9 {
				if m.dur[i] > 0 && m.dur[j] > 0 {
					return errf("tasks %d and %d overlap on proc %d", i, j, r.Proc[i])
				}
			}
		}
	}
	return nil
}

func errf(format string, args ...any) error {
	return &scheduleError{msg: format, args: args}
}

type scheduleError struct {
	msg  string
	args []any
}

func (e *scheduleError) Error() string { return e.msg }

func TestSimulateBusyDiamond(t *testing.T) {
	m, _ := diamond(t, [4]float64{10, 20, 30, 5})
	// Queue order: a, b, c, d. Two threads: T0 gets a, c; T1 gets b, d.
	r, err := m.Simulate(orderDealt(m.plan, 2), StrategyOverheads{})
	if err != nil {
		t.Fatal(err)
	}
	// T0: a 0-10, c 10-40. T1: b waits for a: 10-30; d waits for c: 40-45.
	if r.Start[1] != 10 || r.Finish[2] != 40 || r.Finish[3] != 45 {
		t.Fatalf("schedule: b %v-%v c %v-%v d %v-%v",
			r.Start[1], r.Finish[1], r.Start[2], r.Finish[2], r.Start[3], r.Finish[3])
	}
	// T1 waited 10 (for a) + 10 (d at 30, c finishes 40).
	if math.Abs(r.WaitUS-20) > 1e-9 {
		t.Fatalf("wait = %v, want 20", r.WaitUS)
	}
	if _, err := m.Simulate(nil, StrategyOverheads{}); err == nil {
		t.Fatal("0 threads accepted")
	}
	if _, err := m.Simulate([][]int32{{1, 0}, {2, 3}}, StrategyOverheads{}); err == nil {
		t.Fatal("a node listed before its predecessor accepted")
	}
	if _, err := m.Simulate([][]int32{{0, 1}, {2, 2}}, StrategyOverheads{}); err == nil {
		t.Fatal("a node listed twice accepted")
	}
	if _, err := m.Simulate([][]int32{{0, 1}, {2}}, StrategyOverheads{}); err == nil {
		t.Fatal("a node on no list accepted")
	}
}

func TestSimulateSleepAddsWakeLatency(t *testing.T) {
	m, _ := diamond(t, [4]float64{10, 20, 30, 5})
	busy, _ := m.Simulate(orderDealt(m.plan, 2), StrategyOverheads{})
	sleep, err := m.Simulate(orderDealt(m.plan, 2), StrategyOverheads{WakeUS: 7})
	if err != nil {
		t.Fatal(err)
	}
	if sleep.MakespanUS <= busy.MakespanUS {
		t.Fatalf("sleep %v not slower than busy %v", sleep.MakespanUS, busy.MakespanUS)
	}
	// Two stalls on thread 1 -> +7 each propagating: b starts 17, d waits
	// for c (40) then +7 -> 47, finish 52.
	if math.Abs(sleep.MakespanUS-52) > 1e-9 {
		t.Fatalf("sleep makespan = %v, want 52", sleep.MakespanUS)
	}
}

func TestSimulateBusyCheckOverhead(t *testing.T) {
	m, _ := diamond(t, [4]float64{10, 20, 30, 5})
	r, _ := m.Simulate(orderDealt(m.plan, 1), StrategyOverheads{CheckUS: 1})
	// Sequential with 1 µs per node check: 65 + 4.
	if math.Abs(r.MakespanUS-69) > 1e-9 {
		t.Fatalf("makespan = %v, want 69", r.MakespanUS)
	}
}

func TestSimulationsRespectDependenciesProperty(t *testing.T) {
	f := func(seed uint64, threadsRaw uint8) bool {
		threads := 1 + int(threadsRaw)%6
		g, _ := graph.RandomDAG(graph.RandomSpec{Nodes: 25, EdgeProb: 0.2, Seed: seed})
		p, err := g.Compile()
		if err != nil {
			return false
		}
		durs := make([]float64, p.Len())
		rng := seed | 1
		for i := range durs {
			rng = rng*2862933555777941757 + 3037000493
			durs[i] = float64(rng % 50)
		}
		m, err := FromPlan(p, durs)
		if err != nil {
			return false
		}
		for _, sim := range []func() (*Result, error){
			func() (*Result, error) {
				return m.Simulate(p.RoundRobinLists(threads), StrategyOverheads{CheckUS: 0.5})
			},
			func() (*Result, error) {
				return m.Simulate(p.RoundRobinLists(threads), StrategyOverheads{CheckUS: 0.5, WakeUS: 3})
			},
		} {
			r, err := sim()
			if err != nil {
				return false
			}
			if checkScheduleValid(m, r, threads) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrencyProfile(t *testing.T) {
	m, _ := diamond(t, [4]float64{10, 20, 30, 5})
	r := m.EarliestStart()
	prof := ConcurrencyProfile(r, 45)
	if len(prof) != 45 {
		t.Fatalf("profile length %d", len(prof))
	}
	// During (10, 30) both b and c run.
	if prof[15] != 2 {
		t.Fatalf("profile[15] = %d, want 2", prof[15])
	}
	// During (30, 40) only c.
	if prof[35] != 1 {
		t.Fatalf("profile[35] = %d, want 1", prof[35])
	}
	if ConcurrencyProfile(r, 0) != nil {
		t.Fatal("0 samples should give nil")
	}
}

func TestEfficiency(t *testing.T) {
	m, _ := diamond(t, [4]float64{10, 20, 30, 5})
	r, _ := m.ListSchedule(2)
	e := m.Efficiency(r)
	// Makespan 45 == critical path 45: efficiency 1.
	if math.Abs(e-1) > 1e-9 {
		t.Fatalf("efficiency = %v, want 1", e)
	}
	busy, _ := m.Simulate(orderDealt(m.plan, 2), StrategyOverheads{CheckUS: 2})
	if eb := m.Efficiency(busy); eb >= 1 || eb <= 0 {
		t.Fatalf("busy efficiency = %v, want in (0,1)", eb)
	}
}

// TestStandardGraphNumbers checks the paper's §IV simulation numbers on
// the standard 67-node graph with the DESIGN.md cost targets: makespan
// ~295 µs at infinite processors with peak concurrency 33, ~324 µs on 4
// processors, and a BUSY simulation within ~10 % of the optimum.
func TestStandardGraphNumbers(t *testing.T) {
	cfg := graph.DefaultConfig()
	cfg.TrackBars = 2
	_, g, err := graph.BuildDJStar(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	durs := PaperCostsUS(p)
	m, err := FromPlan(p, durs)
	if err != nil {
		t.Fatal(err)
	}

	es := m.EarliestStart()
	if es.MakespanUS < 270 || es.MakespanUS > 320 {
		t.Fatalf("critical path = %v µs, want ~295", es.MakespanUS)
	}
	if es.PeakConcurrency != 33 {
		t.Fatalf("peak concurrency = %d, want 33", es.PeakConcurrency)
	}

	four, err := m.ListSchedule(4)
	if err != nil {
		t.Fatal(err)
	}
	if four.MakespanUS < es.MakespanUS-1e-9 {
		t.Fatal("4-proc schedule beats critical path")
	}
	// Paper: 324 µs, i.e. within ~8 % of the unconstrained optimum.
	if four.MakespanUS > es.MakespanUS*1.25 {
		t.Fatalf("4-proc makespan %v too far above critical path %v",
			four.MakespanUS, es.MakespanUS)
	}

	busy, err := m.Simulate(p.RoundRobinLists(4), StrategyOverheads{CheckUS: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if busy.MakespanUS < four.MakespanUS-1e-9 {
		t.Fatal("BUSY simulation beats the list schedule")
	}
	if busy.MakespanUS > four.MakespanUS*1.35 {
		t.Fatalf("BUSY simulation %v too far above optimum %v",
			busy.MakespanUS, four.MakespanUS)
	}
	if m.TotalWork() < 1000 || m.TotalWork() > 1250 {
		t.Fatalf("total work = %v µs, want ~1090 (Table I sequential)", m.TotalWork())
	}
}

func TestSimulatePipelineModel(t *testing.T) {
	m, p := diamond(t, [4]float64{10, 20, 30, 5})
	res, err := m.SimulatePipeline(p.Depth, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Depths: a=0, b/c=1, d=2 -> 3 stages with work 10, 50, 5.
	if res.Stages != 3 {
		t.Fatalf("stages = %d", res.Stages)
	}
	// Stage 1 (b+c) dominates; with its processor share it still cannot
	// beat its longest node (30).
	if res.InitiationIntervalUS < 25 {
		t.Fatalf("II = %v, impossibly low", res.InitiationIntervalUS)
	}
	if res.LatencyUS != float64(res.Stages)*res.InitiationIntervalUS {
		t.Fatalf("latency %v != stages*II", res.LatencyUS)
	}
	if _, err := m.SimulatePipeline(p.Depth, 0); err == nil {
		t.Fatal("0 procs accepted")
	}
	if _, err := m.SimulatePipeline(nil, 4); err == nil {
		t.Fatal("bad depth accepted")
	}
}

func TestSimulateDataParallelModel(t *testing.T) {
	m, _ := diamond(t, [4]float64{10, 20, 30, 5})
	res, err := m.SimulateDataParallel(2, 4, 2902)
	if err != nil {
		t.Fatal(err)
	}
	// The first packet waits one packet period for its batch partner.
	if res.LatencyUS < 2902 {
		t.Fatalf("latency %v below the arrival wait", res.LatencyUS)
	}
	if res.ComputeUS <= 0 {
		t.Fatal("no compute time")
	}
	// Throughput per packet is below the latency (that is the pitch of
	// batching).
	if res.ThroughputIntervalUS >= res.LatencyUS {
		t.Fatalf("throughput %v not better than latency %v",
			res.ThroughputIntervalUS, res.LatencyUS)
	}
	if _, err := m.SimulateDataParallel(0, 4, 2902); err == nil {
		t.Fatal("batch 0 accepted")
	}
}
