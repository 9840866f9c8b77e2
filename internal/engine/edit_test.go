package engine

import (
	"strings"
	"testing"

	"djstar/internal/graph"
	"djstar/internal/rescon"
	"djstar/internal/sched"
)

// editStrategies is every execution configuration ApplyEdits must work
// on: the five parallel strategies, the sequential baseline, and a
// pool-backed session.
var editStrategies = []string{
	sched.NameSequential, sched.NameBusyWait, sched.NameSleep,
	sched.NameWorkSteal, sched.NameSleepScan, sched.NameStatic,
	sched.NamePool,
}

// TestEngineApplyPatchAllStrategies inserts and removes a live delay
// chain on every execution configuration, with the governor on,
// checking epoch advancement, node-count round-trip, a collector sized
// for each adopted plan and uninterrupted cycles on either side.
func TestEngineApplyPatchAllStrategies(t *testing.T) {
	for _, name := range editStrategies {
		t.Run(name, func(t *testing.T) {
			threads := 4
			if name == sched.NameSequential {
				threads = 1
			}
			cfg := fastConfig(name, threads)
			cfg.Governor.Enabled = true
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			baseNodes := e.Plan().Len()
			e.RunCycles(10)

			if err := e.ApplyPatch("insert-delay:B:2"); err != nil {
				t.Fatalf("insert: %v", err)
			}
			// Staged only: nothing adopted until the cycle boundary.
			if e.PlanEpoch() != 0 || e.Plan().Len() != baseNodes {
				t.Fatal("edit adopted outside a cycle boundary")
			}
			e.Cycle(nil)
			if e.PlanEpoch() != 1 {
				t.Fatalf("epoch = %d after insert, want 1", e.PlanEpoch())
			}
			if got := e.Plan().Len(); got != baseNodes+2 {
				t.Fatalf("plan size = %d after insert, want %d", got, baseNodes+2)
			}
			if e.Graph().NodeByName("LiveDelayB1") < 0 || e.Graph().NodeByName("LiveDelayB2") < 0 {
				t.Fatal("delay nodes missing from live graph")
			}
			m := e.RunCycles(20)
			if m.Cycles() != 20 {
				t.Fatalf("post-insert cycles = %d", m.Cycles())
			}
			if got := len(e.Collector().NodeMeansUS()); got != baseNodes+2 {
				t.Fatalf("collector sized %d after insert, want %d", got, baseNodes+2)
			}

			if err := e.ApplyPatch("remove-delay:B"); err != nil {
				t.Fatalf("remove: %v", err)
			}
			e.Cycle(nil)
			if e.PlanEpoch() != 2 || e.Plan().Len() != baseNodes {
				t.Fatalf("after remove: epoch %d, %d nodes, want 2/%d",
					e.PlanEpoch(), e.Plan().Len(), baseNodes)
			}
			le := e.LastEdit()
			if le == nil || !le.Applied || le.Desc != "remove-delay:B" {
				t.Fatalf("LastEdit = %+v", le)
			}
			e.RunCycles(10)
		})
	}
}

// TestEngineApplyEditsStacked: two edits staged before one cycle
// boundary compose and land in a single adoption.
func TestEngineApplyEditsStacked(t *testing.T) {
	e, err := New(fastConfig(sched.NameBusyWait, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	base := e.Plan().Len()
	e.RunCycles(5)
	if err := e.ApplyPatch("insert-delay:A"); err != nil {
		t.Fatal(err)
	}
	if err := e.ApplyPatch("insert-delay:B"); err != nil {
		t.Fatal(err)
	}
	e.Cycle(nil)
	if e.PlanEpoch() != 1 {
		t.Fatalf("stacked edits adopted as %d epochs, want 1", e.PlanEpoch())
	}
	if got := e.Plan().Len(); got != base+2 {
		t.Fatalf("plan size = %d, want %d", got, base+2)
	}
	le := e.LastEdit()
	if le == nil || !le.Applied || !strings.Contains(le.Desc, "insert-delay:A") ||
		!strings.Contains(le.Desc, "insert-delay:B") {
		t.Fatalf("LastEdit = %+v", le)
	}
	e.RunCycles(5)
}

// TestStackedEditRacingAdoption: an edit stacked on a staged one whose
// stage the cycle thread adopts between build and publish lands as if
// built on the live topology — shed bits stay on the node they were set
// on, not on the node that held its ID two epochs back.
func TestStackedEditRacingAdoption(t *testing.T) {
	e, err := New(fastConfig(sched.NameBusyWait, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	base := e.Plan().Len()
	e.RunCycles(3)
	if err := e.ApplyPatch("drop-node:MeterA"); err != nil {
		t.Fatal(err)
	}
	// Each drop shifts the later IDs down by one.
	e.faults.SetNodeShed(int32(e.Graph().NodeByName("Loudness")), true)
	adopted := false
	e.beforePublish = func() {
		if !adopted {
			adopted = true
			e.Cycle(nil) // the cycle thread adopts the stage the edit was built on
		}
	}
	if err := e.ApplyPatch("drop-node:CueVU"); err != nil {
		t.Fatal(err)
	}
	if !adopted || e.PlanEpoch() != 1 {
		t.Fatalf("adopted %v, epoch %d before the stacked edit's boundary, want 1", adopted, e.PlanEpoch())
	}
	e.Cycle(nil)
	if e.PlanEpoch() != 2 || e.Plan().Len() != base-2 {
		t.Fatalf("epoch %d with %d nodes, want 2 and %d", e.PlanEpoch(), e.Plan().Len(), base-2)
	}
	for i, name := range e.Plan().Names {
		if name == "MeterA" || name == "CueVU" {
			t.Fatalf("%s survived its drop", name)
		}
		if got, want := e.faults.Shed(int32(i)), name == "Loudness"; got != want {
			t.Errorf("%s shed = %v, want %v", name, got, want)
		}
	}
	e.RunCycles(3)
}

// TestEngineApplyPatchRejected: a bad spec is refused synchronously,
// recorded in LastEdit, and leaves the topology untouched.
func TestEngineApplyPatchRejected(t *testing.T) {
	e, err := New(fastConfig(sched.NameBusyWait, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, spec := range []string{"bogus", "insert-delay:Z", "remove-delay:A", "drop-node:Mixer"} {
		if err := e.ApplyPatch(spec); err == nil {
			t.Fatalf("patch %q accepted", spec)
		}
		le := e.LastEdit()
		if le == nil || le.Applied || le.Err == "" {
			t.Fatalf("LastEdit after %q = %+v", spec, le)
		}
	}
	e.Cycle(nil)
	if e.PlanEpoch() != 0 {
		t.Fatal("rejected edits advanced the epoch")
	}
}

// TestEngineEditRollback: an edit that passes graph validation but is
// refused by the scheduler at the swap boundary (here: shrinking the
// plan below the worker count) rolls back — the old topology stays
// live, the epoch does not advance, and the outcome is recorded.
func TestEngineEditRollback(t *testing.T) {
	e, err := New(fastConfig(sched.NameBusyWait, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.RunCycles(5)

	// Remove every node but the first two: a valid 2-node graph, but a
	// 4-worker scheduler cannot run it.
	es := &graph.EditSet{}
	for i := 2; i < e.Plan().Len(); i++ {
		es.RemoveNode(graph.NodeRef(i))
	}
	if err := e.ApplyEdits(es); err != nil {
		t.Fatalf("staging should succeed (graph-valid): %v", err)
	}
	before := e.Plan().Len()
	e.Cycle(nil) // adoption refused here
	if e.PlanEpoch() != 0 {
		t.Fatalf("rollback advanced the epoch to %d", e.PlanEpoch())
	}
	if e.Plan().Len() != before {
		t.Fatal("rollback changed the live plan")
	}
	le := e.LastEdit()
	if le == nil || le.Applied || le.Err == "" || le.Epoch != 0 {
		t.Fatalf("LastEdit = %+v, want one rollback at epoch 0", le)
	}
	// The engine keeps running on the old topology.
	m := e.RunCycles(10)
	if m.Cycles() != 10 {
		t.Fatalf("post-rollback cycles = %d", m.Cycles())
	}
}

// TestEngineEditMigratesState: replacing a live delay node hands its
// delay-line state to the replacement's Migrate hook.
func TestEngineEditMigratesState(t *testing.T) {
	e, err := New(fastConfig(sched.NameBusyWait, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.ApplyPatch("insert-delay:B"); err != nil {
		t.Fatal(err)
	}
	e.RunCycles(30) // let the delay line fill

	var migrated any
	id := e.Graph().NodeByName("LiveDelayB1")
	if id < 0 {
		t.Fatal("LiveDelayB1 missing")
	}
	es := &graph.EditSet{}
	es.ReplaceChain([]graph.NodeRef{graph.NodeRef(id)}, graph.NodeSpec{
		Name:    "ReplacementDelay",
		Migrate: func(prev any) { migrated = prev },
	})
	if err := e.ApplyEdits(es); err != nil {
		t.Fatal(err)
	}
	e.Cycle(nil)
	if e.PlanEpoch() != 2 {
		t.Fatalf("epoch = %d, want 2", e.PlanEpoch())
	}
	if migrated == nil {
		t.Fatal("Migrate hook did not receive the predecessor's state")
	}
}

// TestEngineLastEditOnAdoption: an adopted edit is recorded once, with
// the post-adoption epoch and node count; an edit-free cycle after it
// records nothing new.
func TestEngineLastEditOnAdoption(t *testing.T) {
	e, err := New(fastConfig(sched.NameWorkSteal, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	base := e.Plan().Len()
	if err := e.ApplyPatch("insert-delay:A:3"); err != nil {
		t.Fatal(err)
	}
	e.Cycle(nil)
	le := e.LastEdit()
	if le == nil || !le.Applied || le.Epoch != 1 || e.Plan().Len() != base+3 || le.Desc != "insert-delay:A:3" {
		t.Fatalf("LastEdit = %+v with %d nodes, want epoch 1 and %d", le, e.Plan().Len(), base+3)
	}
	e.Cycle(nil) // no second outcome without a new edit
	if again := e.LastEdit(); again.Cycle != le.Cycle || e.PlanEpoch() != 1 {
		t.Fatalf("edit-free cycle recorded %+v (epoch %d)", again, e.PlanEpoch())
	}
}

// TestEngineSnapshotReportsEdits: Snapshot v2 carries the epoch and the
// last edit outcome.
func TestEngineSnapshotReportsEdits(t *testing.T) {
	e, err := New(fastConfig(sched.NameBusyWait, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.RunCycles(5)
	if err := e.ApplyPatch("insert-delay:C"); err != nil {
		t.Fatal(err)
	}
	e.Cycle(nil)
	snap := e.Snapshot()
	if snap.SchemaVersion != 4 {
		t.Fatalf("schema = %d, want 4", snap.SchemaVersion)
	}
	if snap.PlanEpoch != 1 {
		t.Fatalf("snapshot epoch = %d", snap.PlanEpoch)
	}
	if snap.LastEdit == nil || !snap.LastEdit.Applied || snap.LastEdit.Desc != "insert-delay:C" {
		t.Fatalf("snapshot LastEdit = %+v", snap.LastEdit)
	}
}

// TestEngineCloseWhileEditStaged: Close with a staged, never-adopted
// edit must not adopt, leak or wedge — and stays idempotent; edits after
// Close are refused.
func TestEngineCloseWhileEditStaged(t *testing.T) {
	e, err := New(fastConfig(sched.NameBusyWait, 4))
	if err != nil {
		t.Fatal(err)
	}
	e.RunCycles(5)
	if err := e.ApplyPatch("insert-delay:B"); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close() // idempotent
	if err := e.ApplyPatch("insert-delay:A"); err == nil {
		t.Fatal("ApplyPatch after Close accepted")
	}
}

// TestNodeCostsAtRunningScale: the engine's one cost table prices a
// staged edit's nodes in one unit — a node the edit adds at the static
// design cost × the running scale, a surviving node at its measured mean
// carried through the remap — so the admission gate sees an inserted
// node beside its neighbours, not 1/scale times dearer.
func TestNodeCostsAtRunningScale(t *testing.T) {
	const scale = 0.05
	cfg := spinConfig(sched.NameSequential, 1)
	cfg.Graph.Scale = scale
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	live := e.topo.Load()
	if _, source := e.nodeCosts(live, live.plan, nil); source != "static" {
		t.Fatalf("source before the first cycle = %q, want static", source)
	}
	e.RunCycles(10)
	measured := live.col.NodeMeansUS()
	es, err := e.session.BuildPatch(live.g, "insert-delay:A:2")
	if err != nil {
		t.Fatal(err)
	}
	_, plan2, remap, err := live.g.Apply(es)
	if err != nil {
		t.Fatal(err)
	}
	costs, source := e.nodeCosts(live, plan2, remap)
	if source != "measured" || len(costs) != plan2.Len() {
		t.Fatalf("source %q, %d costs for %d nodes", source, len(costs), plan2.Len())
	}
	static := rescon.PaperCostsUS(plan2)
	fresh := 0
	for i, got := range costs {
		want := static[i] * scale
		if old := remap.NewToOld[i]; old < 0 {
			fresh++
		} else if measured[old] > 0 {
			want = measured[old]
		}
		if got != want {
			t.Errorf("node %s: cost %.3f µs, want %.3f", plan2.Names[i], got, want)
		}
	}
	if fresh != 2 {
		t.Fatalf("edit added %d nodes, want the 2 delay units", fresh)
	}
}
