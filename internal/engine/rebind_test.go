package engine

import (
	"fmt"
	"testing"

	"djstar/internal/faults"
	"djstar/internal/graph"
	"djstar/internal/sched"
)

func poolConfig(pool *sched.Pool) Config {
	gc := graph.DefaultConfig()
	gc.TrackBars = 2
	return Config{Graph: gc, Pool: pool}
}

// TestRebindExactlyOnce is the migration property test: across a
// cross-pool Rebind, every node executes exactly once per cycle — no
// cycle lost, none doubled — which the per-node observer counts make
// directly checkable.
func TestRebindExactlyOnce(t *testing.T) {
	src, err := sched.NewPool(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst, err := sched.NewPool(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()

	e, err := New(poolConfig(src))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const k1, k2 = 37, 23
	for i := 0; i < k1; i++ {
		e.Cycle(nil)
	}
	posBefore := e.Session().Decks[0].Position()
	cyclesBefore := e.Cycles()
	if cyclesBefore != k1 {
		t.Fatalf("cycles before rebind = %d, want %d", cyclesBefore, k1)
	}

	if err := e.Rebind(dst); err != nil {
		t.Fatalf("Rebind: %v", err)
	}
	if e.Scheduler().Name() != sched.NamePool {
		t.Fatalf("strategy after rebind = %q", e.Scheduler().Name())
	}
	for i := 0; i < k2; i++ {
		e.Cycle(nil)
	}

	if got := e.Cycles(); got != k1+k2 {
		t.Fatalf("cycles after rebind = %d, want %d", got, k1+k2)
	}
	// Exactly-once: the observer survived the migration, so every node's
	// count must be the total cycle count.
	for _, ns := range e.Collector().NodeStats() {
		if ns.Count != k1+k2 {
			t.Fatalf("node %s executed %d times over %d cycles", ns.Name, ns.Count, k1+k2)
		}
	}
	// State carry-over: the deck playhead kept advancing from where it
	// was, rather than resetting with a fresh session.
	if pos := e.Session().Decks[0].Position(); pos <= posBefore {
		t.Fatalf("deck position %v after rebind, was %v before — state lost", pos, posBefore)
	}
	if got := int(e.Session().Cycles()); got != k1+k2 {
		t.Fatalf("session cycles = %d, want %d", got, k1+k2)
	}
}

// TestRebindCarriesStagedEditAndSessionID checks that a staged-but-
// unadopted edit survives the pool move and adopts on the first
// post-migration cycle, and that the fleet-scoped session ID is stable.
func TestRebindCarriesStagedEditAndSessionID(t *testing.T) {
	src, err := sched.NewPool(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst, err := sched.NewPool(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()

	cfg := poolConfig(src)
	cfg.Telemetry.Session = "mig-7"
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Cycle(nil)

	if err := e.ApplyPatch("insert-delay:B:2"); err != nil {
		t.Fatalf("ApplyPatch: %v", err)
	}
	epochBefore := e.PlanEpoch()
	if err := e.Rebind(dst); err != nil {
		t.Fatalf("Rebind: %v", err)
	}
	e.Cycle(nil) // adoption happens at the cycle boundary, on the new pool
	if got := e.PlanEpoch(); got != epochBefore+1 {
		t.Fatalf("plan epoch after rebind+cycle = %d, want %d (staged edit lost)", got, epochBefore+1)
	}
	if got := e.SessionID(); got != "mig-7" {
		t.Fatalf("session ID = %q, want stable %q", got, "mig-7")
	}
	snap := e.Snapshot()
	if snap.SchemaVersion != SnapshotSchemaVersion || snap.SessionID != "mig-7" {
		t.Fatalf("snapshot v%d session %q", snap.SchemaVersion, snap.SessionID)
	}
}

// TestRebindRejects covers the guarded error paths: nil pool, non-pool
// strategy, oversized destination, closed engine.
func TestRebindRejects(t *testing.T) {
	e, err := New(fastConfig(sched.NameSequential, 1))
	if err != nil {
		t.Fatal(err)
	}
	p, err := sched.NewPool(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := e.Rebind(p); err == nil {
		t.Fatal("Rebind accepted a non-pool engine")
	}
	e.Close()

	src, _ := sched.NewPool(1, 1)
	defer src.Close()
	pe, err := New(poolConfig(src))
	if err != nil {
		t.Fatal(err)
	}
	defer pe.Close()
	if err := pe.Rebind(nil); err == nil {
		t.Fatal("Rebind accepted nil pool")
	}
	big, _ := sched.NewPool(8, 1)
	defer big.Close()
	if err := pe.Rebind(big); err == nil {
		t.Fatal("Rebind accepted a pool wider than the observer")
	}
	pe.Close()
	ok, _ := sched.NewPool(1, 1)
	defer ok.Close()
	if err := pe.Rebind(ok); err == nil {
		t.Fatal("Rebind accepted a closed engine")
	}
}

// TestRebindKeepsFaultStateHolders: the fault state is one object for the
// session's life, so everything that holds it — the governor, the
// watchdog, a caller's own pointer — keeps working across Rebind (and an
// edit adopted on the new pool) without any retarget call.
func TestRebindKeepsFaultStateHolders(t *testing.T) {
	src, err := sched.NewPool(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst, err := sched.NewPool(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()

	const stallCycle = 12
	specs, err := faults.Parse(fmt.Sprintf("stall:Mixer@%d:200ms", stallCycle))
	if err != nil {
		t.Fatal(err)
	}
	stalls := make(chan StallRecord, 1)
	cfg := poolConfig(src)
	cfg.Graph.Faults = faults.New(1, specs...)
	cfg.Watchdog, cfg.WatchdogWallMS = true, 40
	cfg.Governor = GovernorConfig{Enabled: true, Window: 1 << 20} // never evaluates on its own
	cfg.Hooks.OnStall = func(r StallRecord) {
		select {
		case stalls <- r:
		default:
		}
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Looked up per use: the edit adopted below renumbers nodes.
	nodeID := func(name string) int32 { return int32(e.Graph().NodeByName(name)) }

	fs := e.Scheduler().FaultState()
	e.gov.force(GovDegraded1) // sheds meters (Loudness among them) and control
	for i := 0; i < 3; i++ {
		e.Cycle(nil)
	}
	if err := e.ApplyPatch("insert-delay:B:2"); err != nil { // adopts on the new pool
		t.Fatal(err)
	}
	if err := e.Rebind(dst); err != nil {
		t.Fatal(err)
	}
	e.Cycle(nil)
	if e.PlanEpoch() != 1 {
		t.Fatalf("plan epoch = %d, staged edit not adopted after rebind", e.PlanEpoch())
	}

	if got := e.Scheduler().FaultState(); got != fs {
		t.Fatalf("fault state replaced by Rebind: %p -> %p", fs, got)
	}
	loud := nodeID("Loudness")
	if e.GovLevel() != GovDegraded1 || !fs.Shed(loud) {
		t.Fatalf("after rebind: level %v, Loudness shed %v; want degraded1, true", e.GovLevel(), fs.Shed(loud))
	}
	// The Loudness kernel folds each packet's RMS into a running value, so
	// the value moving is the kernel running on the new executor.
	before := e.Session().Loudness()
	e.Cycle(nil)
	e.Cycle(nil)
	if got := e.Session().Loudness(); got != before {
		t.Fatalf("shed node ran on the new executor: loudness %v -> %v", before, got)
	}
	// The pointer taken BEFORE the migration and the edit still steers what
	// the new executor runs.
	fs.SetNodeShed(loud, false)
	e.Cycle(nil)
	if got := e.Session().Loudness(); got == before {
		t.Fatal("un-shed through the pre-rebind pointer had no effect on the new executor")
	}
	// So does the governor, which holds the same object.
	e.gov.force(GovNormal)
	if fs.Shed(nodeID("MasterVU")) {
		t.Fatal("governor recovery after rebind left a meter shed")
	}

	// The watchdog names the wedged node of the new executor under the
	// post-edit plan.
	for e.Cycles() < stallCycle+1 {
		e.Cycle(nil)
	}
	select {
	case r := <-stalls:
		if r.Name != "Mixer" || r.Node != nodeID("Mixer") || r.Inflight == "" {
			t.Fatalf("stall record after rebind = %+v, want Mixer in flight", r)
		}
	default:
		t.Fatal("watchdog did not diagnose the stall after rebind")
	}
}
