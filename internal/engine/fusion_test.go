package engine

import (
	"testing"

	"djstar/internal/sched"
)

// TestEngineFusePlan: Config.FusePlan compiles the execution plan
// through chain fusion while the engine's public node-ID space — plan,
// collector, metrics — stays the base graph.
func TestEngineFusePlan(t *testing.T) {
	cfg := fastConfig(sched.NameBusyWait, 4)
	cfg.FusePlan = true
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	base, exec := e.Plan(), e.ExecPlan()
	if !exec.IsFused() || exec.Base != base {
		t.Fatal("ExecPlan is not a fusion of Plan")
	}
	if exec.Len() >= base.Len() {
		t.Fatalf("fusion did not shrink the plan: %d -> %d", base.Len(), exec.Len())
	}
	if e.PlanEpoch() != 0 {
		t.Fatalf("fresh engine epoch = %d", e.PlanEpoch())
	}

	m := e.RunCycles(60)
	if m.Cycles() != 60 || m.GraphMeanMS() <= 0 {
		t.Fatalf("fused run metrics: %+v", m)
	}
	// The collector observes base nodes: every original node has a
	// measured mean even though the scheduler ran fused units.
	means := e.Collector().NodeMeansUS()
	if len(means) != base.Len() {
		t.Fatalf("collector sized %d, want base %d", len(means), base.Len())
	}
	for i, us := range means {
		if us <= 0 {
			t.Fatalf("base node %d (%s) unobserved under fusion", i, base.Names[i])
		}
	}
}

// TestEngineRecompileFusedPool: a fused session attached to a shared
// pool recompiles its fused plan at an edit and adopts it at its own
// cycle boundary through the scheduler's StageSwap — the pool's workers
// are shared, survive the swap, and keep serving the other session.
func TestEngineRecompileFusedPool(t *testing.T) {
	cfg := fastConfig(sched.NameBusyWait, 4)
	cfg.FusePlan = true
	_, engines := poolSessions(t, cfg, 2, 2, 2)
	e, other := engines[0], engines[1]
	runConcurrent(engines, 5)

	base := e.Plan().Len()
	if err := e.ApplyPatch("insert-delay:B:2"); err != nil {
		t.Fatalf("pool session rejected the edit: %v", err)
	}
	if e.PlanEpoch() != 0 {
		t.Fatal("swap adopted outside a cycle boundary")
	}
	e.Cycle(nil)
	if e.PlanEpoch() != 1 {
		t.Fatalf("plan epoch = %d, want 1", e.PlanEpoch())
	}
	exec := e.ExecPlan()
	if !exec.IsFused() || exec.Base != e.Plan() || e.Plan().Len() != base+2 {
		t.Fatal("exec plan is not a fusion of the edited base plan after the pool swap")
	}
	if other.PlanEpoch() != 0 {
		t.Fatalf("the other pool session swapped too: epoch %d", other.PlanEpoch())
	}
	for i, m := range runConcurrent(engines, 20) {
		if m.Cycles() != 20 {
			t.Fatalf("session %d: cycles = %d after the swap", i, m.Cycles())
		}
	}
}
