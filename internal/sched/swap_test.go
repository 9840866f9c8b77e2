package sched

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"djstar/internal/graph"
)

// Property tests for live topology swaps (StageSwap/AdoptStaged): random
// EditSets applied against running schedulers of every strategy and
// against pool sessions, checking that every epoch's cycles run each
// live node exactly once, in dependency order, with no cycle lost or
// doubled at the swap boundary, and that quarantine/shed state follows
// surviving nodes through the remap.

// liveCell tracks one node identity across plan epochs: its run count
// and the global sequence stamp of its latest run.
type liveCell struct {
	count atomic.Int64
	stamp atomic.Int64
}

// editable is a mutable test graph whose nodes record into liveCells,
// letting the test follow identities across any number of edits.
type editable struct {
	g     *graph.Graph
	cells []*liveCell // index = current graph node ID
	seq   atomic.Int64
	next  int // added-node name counter
}

func (e *editable) newCell() (*liveCell, func()) {
	c := &liveCell{}
	return c, func() {
		c.count.Add(1)
		c.stamp.Store(e.seq.Add(1))
	}
}

// newEditable builds a random base DAG (edges always low ID -> high ID,
// an invariant every mutation below preserves, so edits never create
// cycles by construction).
func newEditable(nodes int, edgeProb float64, rng *rand.Rand) *editable {
	e := &editable{g: graph.New()}
	for i := 0; i < nodes; i++ {
		c, run := e.newCell()
		e.g.AddNode(fmt.Sprintf("base%d", i), graph.SectionMaster, run)
		e.cells = append(e.cells, c)
	}
	for to := 1; to < nodes; to++ {
		for from := 0; from < to; from++ {
			if rng.Float64() < edgeProb {
				if err := e.g.AddEdge(from, to); err != nil {
					panic(err)
				}
			}
		}
	}
	return e
}

// pickSurvivor returns a random node ID not yet removed by this set.
func pickSurvivor(rng *rand.Rand, n int, removed map[int]bool) int {
	for tries := 0; tries < 8; tries++ {
		id := rng.Intn(n)
		if !removed[id] {
			return id
		}
	}
	return -1
}

// mutate applies one random EditSet (1-3 ops) to the editable. It
// reports false when the generated set was rejected (e.g. a duplicate
// edge) — the graph is then unchanged, exactly the rollback contract.
func (e *editable) mutate(rng *rand.Rand, minNodes int) (*graph.Plan, *graph.Remap, bool) {
	es := &graph.EditSet{}
	var added []*liveCell
	removed := map[int]bool{}
	n := e.g.Len()
	ops := 1 + rng.Intn(3)
	for k := 0; k < ops; k++ {
		op := rng.Intn(4)
		if op == 1 && n-len(removed) <= minNodes {
			op = 0
		}
		switch op {
		case 0: // add a node fed by a random survivor
			c, run := e.newCell()
			ref := es.AddNode(graph.NodeSpec{Name: fmt.Sprintf("live%d", e.next), Run: run})
			e.next++
			if from := pickSurvivor(rng, n, removed); from >= 0 {
				es.AddEdge(graph.NodeRef(from), ref)
			}
			added = append(added, c)
		case 1: // remove a node
			id := pickSurvivor(rng, n, removed)
			if id < 0 {
				continue
			}
			es.RemoveNode(graph.NodeRef(id))
			removed[id] = true
		case 2: // add a low->high edge between survivors
			i, j := rng.Intn(n), rng.Intn(n)
			if i > j {
				i, j = j, i
			}
			if i == j || removed[i] || removed[j] {
				continue
			}
			es.AddEdge(graph.NodeRef(i), graph.NodeRef(j))
		case 3: // remove an existing edge between survivors
			i := pickSurvivor(rng, n, removed)
			if i < 0 {
				continue
			}
			succs := e.g.Node(i).Succs()
			if len(succs) == 0 {
				continue
			}
			j := succs[rng.Intn(len(succs))]
			if removed[j] {
				continue
			}
			es.RemoveEdge(graph.NodeRef(i), graph.NodeRef(j))
		}
	}
	if es.Len() == 0 {
		return nil, nil, false
	}
	g2, plan, r, err := e.g.Apply(es)
	if err != nil {
		return nil, nil, false
	}
	cells := make([]*liveCell, g2.Len())
	ai := 0
	for newID := range cells {
		if old := r.NewToOld[newID]; old >= 0 {
			cells[newID] = e.cells[old]
		} else {
			cells[newID] = added[ai]
			ai++
		}
	}
	e.g, e.cells = g2, cells
	return plan, r, true
}

// stageSwap stages plan2 on s, fused shape-only (graph.Fuse with unit
// costs, uncapped — the setting that collapses the most chains) when
// fuse is set, so the property covers swaps to and from fused plans.
func stageSwap(t *testing.T, s Scheduler, plan2 *graph.Plan, r *graph.Remap, fuse bool, tag string) {
	t.Helper()
	exec := plan2
	if fuse {
		fp, err := graph.Fuse(plan2, nil, graph.FuseOptions{MaxCostUS: 1e12})
		if err != nil {
			t.Fatalf("%s: Fuse: %v", tag, err)
		}
		exec = fp
	}
	if err := s.StageSwap(Swap{Plan: exec, OldToNew: r.OldToNew}); err != nil {
		t.Fatalf("%s: StageSwap: %v", tag, err)
	}
}

// runAndCheck executes `cycles` cycles and verifies each live node ran
// exactly once per cycle, after all of its current-plan predecessors,
// and that the fault state is sized for the base plan, fused or not.
func (e *editable) runAndCheck(t *testing.T, s Scheduler, plan *graph.Plan, cycles int, tag string) {
	t.Helper()
	for c := 0; c < cycles; c++ {
		before := make([]int64, len(e.cells))
		for i, cell := range e.cells {
			before[i] = cell.count.Load()
		}
		s.Execute()
		for i, cell := range e.cells {
			if got := cell.count.Load() - before[i]; got != 1 {
				t.Fatalf("%s cycle %d: node %d (%s) ran %d times, want exactly once",
					tag, c, i, plan.Names[i], got)
			}
		}
		for i := 0; i < plan.Len(); i++ {
			for _, d := range plan.PredsOf(int32(i)) {
				if e.cells[d].stamp.Load() > e.cells[i].stamp.Load() {
					t.Fatalf("%s cycle %d: node %s ran before dependency %s",
						tag, c, plan.Names[i], plan.Names[d])
				}
			}
		}
		if fa := s.FaultState().arr.Load(); fa.plan != plan || len(fa.state) != plan.Len() {
			t.Fatalf("%s cycle %d: fault state has %d slots for a %d-node plan, want the %d-node base plan's",
				tag, c, len(fa.state), fa.plan.Len(), plan.Len())
		}
	}
}

// TestSwapPropertyAllStrategies drives >100 random EditSets across every
// strategy: each staged swap must be adopted at the next Execute with no
// cycle lost or doubled on either side of the boundary.
func TestSwapPropertyAllStrategies(t *testing.T) {
	const editsPerRun, cyclesPerEpoch = 5, 3
	seeds := []int64{1, 2, 7, 42}
	for _, name := range AllStrategies {
		for _, seed := range seeds {
			tag := fmt.Sprintf("%s/seed%d", name, seed)
			rng := rand.New(rand.NewSource(seed))
			e := newEditable(12, 0.25, rng)
			plan, err := e.g.Compile()
			if err != nil {
				t.Fatal(err)
			}
			threads := 3
			if name == NameSequential {
				threads = 1
			}
			s, err := New(name, plan, Options{Threads: threads})
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			e.runAndCheck(t, s, plan, cyclesPerEpoch, tag)
			for edits := 0; edits < editsPerRun; {
				plan2, r, ok := e.mutate(rng, threads+2)
				if !ok {
					continue
				}
				stageSwap(t, s, plan2, r, edits%2 == 1, tag)
				edits++
				plan = plan2
				// Execute adopts the staged swap at its top.
				e.runAndCheck(t, s, plan, cyclesPerEpoch, fmt.Sprintf("%s/edit%d", tag, edits))
			}
			s.Close()
		}
	}
}

// TestSwapPropertyPoolSessions runs the same property against two
// concurrent pool sessions: each session's swaps are independent and
// must not disturb the other session's cycles.
func TestSwapPropertyPoolSessions(t *testing.T) {
	p, err := NewPool(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for _, seed := range []int64{5, 17} {
		rng := rand.New(rand.NewSource(seed))
		a := newEditable(10, 0.25, rng)
		b := newEditable(14, 0.2, rng)
		planA, _ := a.g.Compile()
		planB, _ := b.g.Compile()
		sa, err := p.Attach(planA, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sb, err := p.Attach(planB, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for edits := 0; edits < 6; {
			a.runAndCheck(t, sa, planA, 2, "poolA")
			b.runAndCheck(t, sb, planB, 2, "poolB")
			// Edit one session per round, alternating.
			e, s, plan := a, sa, &planA
			if edits%2 == 1 {
				e, s, plan = b, sb, &planB
			}
			plan2, r, ok := e.mutate(rng, 6)
			if !ok {
				continue
			}
			// Each session's own edits alternate too: plain, fused, plain.
			stageSwap(t, s, plan2, r, edits%4 >= 2, "pool")
			*plan = plan2
			edits++
		}
		a.runAndCheck(t, sa, planA, 3, "poolA/final")
		b.runAndCheck(t, sb, planB, 3, "poolB/final")
		sa.Close()
		sb.Close()
	}
}

// TestSwapPreservesQuarantineAndShed: a quarantined node and a shed node
// must keep their state across a topology swap, under their new IDs.
func TestSwapPreservesQuarantineAndShed(t *testing.T) {
	e := &editable{g: graph.New()}
	cBoom, _ := e.newCell()
	boomArmed := true
	e.g.AddNode("boom", graph.SectionMaster, func() {
		if boomArmed {
			panic("kernel fault")
		}
		cBoom.count.Add(1)
	})
	e.cells = append(e.cells, cBoom)
	cShed, runShed := e.newCell()
	e.g.AddNode("sheddable", graph.SectionMaster, runShed)
	e.cells = append(e.cells, cShed)
	cOK, runOK := e.newCell()
	e.g.AddNode("ok", graph.SectionMaster, runOK)
	e.cells = append(e.cells, cOK)
	plan, err := e.g.Compile()
	if err != nil {
		t.Fatal(err)
	}

	s, err := New(NameBusyWait, plan, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.FaultState().SetFaultPolicy(FaultPolicy{ProbeEvery: 1 << 30})
	boomID := int32(e.g.NodeByName("boom"))
	shedID := int32(e.g.NodeByName("sheddable"))
	for i := 0; i < QuarantineAfter; i++ {
		s.Execute()
	}
	if !s.FaultState().Quarantined(boomID) {
		t.Fatal("boom not quarantined after fault")
	}
	s.FaultState().SetNodeShed(shedID, true)
	s.Execute()
	shedRuns := cShed.count.Load()

	// Edit: add a node downstream of ok; everything survives.
	es := &graph.EditSet{}
	cNew, runNew := e.newCell()
	ref := es.AddNode(graph.NodeSpec{Name: "joined", Run: runNew})
	es.AddEdge(graph.NodeRef(e.g.NodeByName("ok")), ref)
	g2, plan2, r, err := e.g.Apply(es)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.StageSwap(Swap{Plan: plan2, OldToNew: r.OldToNew}); err != nil {
		t.Fatal(err)
	}
	s.Execute()

	newBoom := int32(g2.NodeByName("boom"))
	newShed := int32(g2.NodeByName("sheddable"))
	if !s.FaultState().Quarantined(newBoom) {
		t.Fatal("quarantine lost across swap")
	}
	if got := cShed.count.Load(); got != shedRuns {
		t.Fatalf("shed node ran across swap: %d -> %d", shedRuns, got)
	}
	if cNew.count.Load() != 1 {
		t.Fatalf("added node ran %d times, want 1", cNew.count.Load())
	}
	// Un-shed under the NEW ID and disarm the kernel: the shed node runs
	// again; the quarantined node stays bypassed until its probe.
	s.FaultState().SetNodeShed(newShed, false)
	boomArmed = false
	s.Execute()
	if got := cShed.count.Load(); got != shedRuns+1 {
		t.Fatalf("un-shed node did not run: %d -> %d", shedRuns, got)
	}
	if cBoom.count.Load() != 0 {
		t.Fatal("quarantined node ran before its probe window")
	}
}

// TestStageSwapValidation covers the refusal paths: empty plans, worker
// counts exceeding the new plan, and staging after Close.
func TestStageSwapValidation(t *testing.T) {
	g, _ := graph.RandomDAG(graph.RandomSpec{Nodes: 6, EdgeProb: 0.3, Seed: 3})
	plan, _ := g.Compile()
	s, err := New(NameWorkSteal, plan, Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.StageSwap(Swap{}); err == nil {
		t.Fatal("empty swap accepted")
	}
	small, _ := graph.RandomDAG(graph.RandomSpec{Nodes: 2, Seed: 3})
	smallPlan, _ := small.Compile()
	if err := s.StageSwap(Swap{Plan: smallPlan}); err == nil {
		t.Fatal("swap shrinking below worker count accepted")
	}
	// A staged-but-never-adopted swap must not leak or wedge Close.
	if err := s.StageSwap(Swap{Plan: plan}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.StageSwap(Swap{Plan: plan}); err == nil {
		t.Fatal("StageSwap after Close accepted")
	}
}

// TestStageSwapRacingAttachMigrated races a StageSwap against an
// AttachMigrated of the same session, between two helper-less pools and
// between two 1-helper pools: a stage StageSwap accepted must be adopted
// by the new session's next Execute, and a refused one must not. On odd
// rounds an earlier stage is pending; a refused stage leaves it in place.
func TestStageSwapRacingAttachMigrated(t *testing.T) {
	const rounds = 1000
	from, earlier, to := noopPlan(t, 6), noopPlan(t, 7), noopPlan(t, 9)
	for _, helpers := range []int{0, 1} {
		t.Run(fmt.Sprintf("helpers=%d", helpers), func(t *testing.T) {
			pools := make([]*Pool, 2)
			for i := range pools {
				p, err := NewPool(helpers, 1)
				if err != nil {
					t.Fatal(err)
				}
				defer p.Close()
				pools[i] = p
			}
			accepted := 0
			for r := 0; r < rounds; r++ {
				old, err := pools[0].Attach(from, Options{})
				if err != nil {
					t.Fatal(err)
				}
				want := from.Len()
				if r%2 == 1 {
					if err := old.StageSwap(Swap{Plan: earlier}); err != nil {
						t.Fatal(err)
					}
					want = earlier.Len()
				}
				// Both sides meet at a barrier; the stager then waits a
				// few spins more each round, sweeping the race window.
				var ready atomic.Int32
				staged := make(chan error, 1)
				go func() {
					ready.Add(1)
					for ready.Load() < 2 {
						runtime.Gosched()
					}
					for i := 0; i < r%100*40; i++ {
						ready.Load()
					}
					staged <- old.StageSwap(Swap{Plan: to})
				}()
				ready.Add(1)
				for ready.Load() < 2 {
					runtime.Gosched()
				}
				ns, err := pools[1].AttachMigrated(old, Options{})
				if err != nil {
					t.Fatal(err)
				}
				stageErr := <-staged
				if stageErr == nil {
					want = to.Len()
					accepted++
				}
				ns.Execute()
				if got := ns.topo.Load().plan.Len(); got != want {
					t.Fatalf("round %d: StageSwap returned %v, and the migrated session runs %d nodes, want %d",
						r, stageErr, got, want)
				}
				ns.Close()
			}
			t.Logf("%d of %d racing stages accepted", accepted, rounds)
		})
	}
}

// TestSwapReusesPending: adopting a swap keeps the dependency counters'
// array when it is large enough, and reallocates it for a larger plan.
func TestSwapReusesPending(t *testing.T) {
	s, err := New(NameBusyWait, noopPlan(t, 67), Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := s.(*core)
	s.Execute()
	adopt := func(nodes int) *depCount {
		t.Helper()
		if err := s.StageSwap(Swap{Plan: noopPlan(t, nodes)}); err != nil {
			t.Fatal(err)
		}
		if !s.AdoptStaged() {
			t.Fatal("staged swap not adopted")
		}
		s.Execute()
		if len(c.pending) != nodes {
			t.Fatalf("%d counters after adopting a %d-node plan", len(c.pending), nodes)
		}
		return &c.pending[0]
	}
	first := &c.pending[0]
	if adopt(67) != first {
		t.Fatal("a same-size swap reallocated the pending counters")
	}
	if adopt(80) == first {
		t.Fatal("a larger swap kept the pending counters")
	}
}
