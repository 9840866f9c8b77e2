package sched

import (
	"fmt"
	"slices"
	"testing"

	"djstar/internal/graph"
)

// windowSpinNS is how long windowPlan's slow node burns wall time; its
// two successors burn a tenth of that each.
const windowSpinNS = 2_000_000

// spinFor returns a node body that burns ns of wall time.
func spinFor(ns int64) func() {
	return func() {
		for t0 := graph.NowNanos(); graph.NowNanos()-t0 < ns; {
		}
	}
}

// windowPlan builds a plan whose node 0 spins for windowSpinNS, nodes 1
// and 2 depend on it, and nodes 3…8 are independent no-ops, so a worker
// of a parallel executor that goes on from node 0 is busy with one of
// its successors while another worker, having waited, takes the other.
// Node 9, a master-section source spinning a quarter as long, is what a
// pool's caller claims first (its home section), so a helper takes node
// 0 and the caller waits for node 2.
func windowPlan(t *testing.T) *graph.Plan {
	t.Helper()
	g := graph.New()
	slow := g.AddNode("slow", graph.SectionDeckA, spinFor(windowSpinNS))
	g.Node(slow).Cost = graph.Cost{BaseUS: windowSpinNS / 1e3}
	for _, sec := range []graph.Section{graph.SectionDeckA, graph.SectionMaster} {
		if err := g.AddEdge(slow, g.AddNode("after", sec, spinFor(windowSpinNS/10))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		g.AddNode(fmt.Sprintf("free%d", i), graph.DeckSection(i%4), nil)
	}
	g.AddNode("lead", graph.SectionMaster, spinFor(windowSpinNS/4))
	p, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestNodeWindowsExcludeWaits pins the Observer's window contract in
// every executor at 1–4 participants: one worker's windows never
// overlap, the sequential baseline's consecutive windows touch (one
// clock read per node), and a node that waited 2 ms for a predecessor
// on another worker records a window that opens after the wait, and so
// far shorter than it.
//
// Preemption of the test's threads (other processes, or other test
// binaries on a small machine) can stretch any window, so the length is
// checked on the shortest cycle; the opening is checked on every cycle
// (a preemption in the instant between a node's end and its successor's
// dependency check is the only one that can move it). A copy of the
// executors that skips the fresh stamp after a dependency spin (busy,
// static), a park (sleep), a steal (ws) or a failed scan (the pool's
// caller) fails here.
func TestNodeWindowsExcludeWaits(t *testing.T) {
	p := windowPlan(t)
	for _, name := range newNames() {
		for threads := 1; threads <= 4; threads++ {
			if name == NameSequential && threads > 1 {
				continue
			}
			t.Run(fmt.Sprintf("%s/%d", name, threads), func(t *testing.T) {
				rec := newRecorder(p.Len())
				s, err := New(name, p, Options{Threads: threads, Observer: rec})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				shortest := int64(windowSpinNS)
				for cycle := 0; cycle < 5; cycle++ {
					s.Execute()
					ev := rec.Events()
					if err := checkWindows(ev, threads); err != nil {
						t.Fatalf("cycle %d: %v", cycle, err)
					}
					if name == NameSequential {
						for k := 1; k < len(p.Order); k++ {
							if prev, cur := ev[p.Order[k-1]], ev[p.Order[k]]; cur.Start != prev.End {
								t.Fatalf("cycle %d: node %d starts at %d, its predecessor in the queue ended at %d",
									cycle, p.Order[k], cur.Start, prev.End)
							}
						}
					}
					for _, id := range []int{1, 2} {
						if ev[id].Start < ev[0].End-windowSpinNS/2 {
							t.Fatalf("cycle %d: node %d after the 2 ms spin opens its window at %d, the spin ended at %d: the wait is in it",
								cycle, id, ev[id].Start, ev[0].End)
						}
					}
					shortest = min(shortest, max(ev[1].End-ev[1].Start, ev[2].End-ev[2].Start))
				}
				if shortest > windowSpinNS/2 {
					t.Fatalf("the nodes after the 2 ms spin record windows of at least %d ns: the wait is in them", shortest)
				}
			})
		}
	}
}

// checkWindows checks one cycle's windows: every node ran on a worker in
// range with a non-negative window, and the windows of each worker are
// disjoint.
func checkWindows(ev []window, threads int) error {
	byWorker := make([][]window, threads)
	for id, e := range ev {
		if e.Worker < 0 || int(e.Worker) >= threads {
			return fmt.Errorf("node %d recorded on worker %d of %d", id, e.Worker, threads)
		}
		if e.End < e.Start {
			return fmt.Errorf("node %d window inverted: %d..%d", id, e.Start, e.End)
		}
		byWorker[e.Worker] = append(byWorker[e.Worker], e)
	}
	for w, ws := range byWorker {
		slices.SortFunc(ws, func(a, b window) int { return int(a.Start - b.Start) })
		for k := 1; k < len(ws); k++ {
			if ws[k].Start < ws[k-1].End {
				return fmt.Errorf("worker %d: window %d..%d overlaps %d..%d", w, ws[k].Start, ws[k].End, ws[k-1].Start, ws[k-1].End)
			}
		}
	}
	return nil
}
