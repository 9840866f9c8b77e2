package engine

import (
	"sync"
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

// TestEngineRecompileFused: staging a fused plan on a live engine swaps
// the scheduler at the next cycle boundary without disturbing the run.
func TestEngineRecompileFused(t *testing.T) {
	cfg := fastConfig(sched.NameWorkSteal, 4)
	cfg.Governor.Enabled = true
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	e.RunCycles(30) // collector now has a measured cost model
	if e.PlanEpoch() != 0 || e.ExecPlan() != e.Plan() {
		t.Fatal("engine fused before RecompileFused")
	}
	if err := e.RecompileFused(nil); err != nil {
		t.Fatal(err)
	}
	// Staged, not yet adopted: the swap waits for the cycle boundary.
	if e.PlanEpoch() != 0 {
		t.Fatal("swap adopted outside a cycle boundary")
	}
	e.Cycle(nil)
	if e.PlanEpoch() != 1 {
		t.Fatalf("epoch after adoption = %d, want 1", e.PlanEpoch())
	}
	exec := e.ExecPlan()
	if !exec.IsFused() || exec.Base != e.Plan() {
		t.Fatal("adopted plan is not a fusion of the base")
	}
	if e.Scheduler().Name() != sched.NameWorkSteal {
		t.Fatalf("strategy changed across swap: %s", e.Scheduler().Name())
	}
	m := e.RunCycles(30)
	if m.Cycles() != 30 || m.GraphMeanMS() <= 0 {
		t.Fatalf("post-swap metrics: %+v", m)
	}

	// A second recompile (explicit costs) swaps again.
	if err := e.RecompileFused(e.Collector().NodeMeansUS()); err != nil {
		t.Fatal(err)
	}
	e.Cycle(nil)
	if e.PlanEpoch() != 2 {
		t.Fatalf("epoch after second adoption = %d, want 2", e.PlanEpoch())
	}
}

// TestEngineRecompileFusedConcurrent: RecompileFused is documented safe
// from any thread while the cycle loop runs — exercised under -race.
func TestEngineRecompileFusedConcurrent(t *testing.T) {
	e, err := New(fastConfig(sched.NameBusyWait, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.RunCycles(5)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if err := e.RecompileFused(nil); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		e.Cycle(nil)
	}
	wg.Wait()
	e.Cycle(nil) // adopt any last staged swap
	if e.PlanEpoch() == 0 {
		t.Fatal("no swap ever adopted")
	}
	if !e.ExecPlan().IsFused() {
		t.Fatal("exec plan not fused after concurrent recompiles")
	}
}

// TestEngineRecompileFusedPool: pool-attached engines swap plans like
// any other strategy now that swaps go through the scheduler's
// StageSwap instead of rebuilding the scheduler (the pool's workers are
// shared and survive the swap).
func TestEngineRecompileFusedPool(t *testing.T) {
	cfg := fastConfig(sched.NamePool, 2)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.RunCycles(5)
	if err := e.RecompileFused(nil); err != nil {
		t.Fatalf("pool engine rejected RecompileFused: %v", err)
	}
	e.Cycle(nil) // adopt at the boundary
	if e.PlanEpoch() != 1 {
		t.Fatalf("plan epoch = %d, want 1", e.PlanEpoch())
	}
	if !e.ExecPlan().IsFused() {
		t.Fatal("exec plan not fused after pool recompile")
	}
	e.RunCycles(20)
}
