package engine

import (
	"strconv"
	"sync"
	"testing"

	"djstar/internal/sched"
)

// poolSessions attaches k engines built from cfg to one fresh shared
// pool with the given helper worker count and slot capacity — what a
// one-shard fleet does, minus the drivers, for tests that must own the
// cycle loop. Session IDs are "0".."k-1". Cleanup closes engines, then
// the pool.
func poolSessions(t *testing.T, cfg Config, k, workers, capacity int) (*sched.Pool, []*Engine) {
	t.Helper()
	pool, err := sched.NewPool(workers, capacity)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	cfg.Pool = pool
	var engines []*Engine
	for i := 0; i < k; i++ {
		cfg.Telemetry.Session = strconv.Itoa(i)
		e, err := New(cfg)
		if err != nil {
			t.Fatalf("session %d/%d: %v", i, k, err)
		}
		t.Cleanup(e.Close)
		engines = append(engines, e)
	}
	return pool, engines
}

// runConcurrent executes n cycles on every engine at once — one driving
// goroutine per session, all sharing the pool's workers — and returns
// per-session metrics in session order.
func runConcurrent(engines []*Engine, n int) []*Metrics {
	out := make([]*Metrics, len(engines))
	var wg sync.WaitGroup
	for i, e := range engines {
		wg.Add(1)
		go func(i int, e *Engine) {
			defer wg.Done()
			out[i] = e.RunCycles(n)
		}(i, e)
	}
	wg.Wait()
	return out
}

// TestPoolConcurrentSessions is the engine-level acceptance test
// for shared-pool scheduling: four full DJ sessions (decks, mixer,
// timecode) execute concurrently over one worker pool, each producing
// audio and metrics independently. An edit on one session adopts at
// that session's own cycle boundary; the others keep their plans and
// keep cycling on the shared workers.
func TestPoolConcurrentSessions(t *testing.T) {
	const sessions = 4
	pool, engines := poolSessions(t, fastConfig("", 0), sessions, 3, sessions)

	if got := len(engines); got != sessions {
		t.Fatalf("%d engines, want %d", got, sessions)
	}
	if pool.Workers() != 3 {
		t.Fatalf("pool workers = %d, want 3", pool.Workers())
	}
	for _, e := range engines {
		if e.Scheduler().Name() != sched.NamePool {
			t.Fatalf("scheduler = %q, want %q", e.Scheduler().Name(), sched.NamePool)
		}
	}

	metrics := runConcurrent(engines, 120)
	if len(metrics) != sessions {
		t.Fatalf("%d metric sets, want %d", len(metrics), sessions)
	}
	for i, mm := range metrics {
		if mm.Cycles() != 120 {
			t.Fatalf("session %d ran %d cycles, want 120", i, mm.Cycles())
		}
		if mm.GraphMeanMS() <= 0 {
			t.Fatalf("session %d has zero graph time", i)
		}
	}
	// Every session must produce real audio independently.
	for i, e := range engines {
		if e.Session().MasterOut().Peak() == 0 {
			t.Fatalf("session %d produced silence", i)
		}
	}

	if err := engines[0].ApplyPatch("insert-delay:B:2"); err != nil {
		t.Fatalf("pool session rejected the edit: %v", err)
	}
	engines[0].Cycle(nil)
	for i, e := range engines {
		if edited := e.PlanEpoch() == 1; edited != (i == 0) {
			t.Fatalf("session %d at plan epoch %d after session 0's edit", i, e.PlanEpoch())
		}
	}
	for i, mm := range runConcurrent(engines, 20) {
		if mm.Cycles() != 20 {
			t.Fatalf("session %d ran %d cycles after the swap, want 20", i, mm.Cycles())
		}
	}
}

// TestPoolSessionMatchesSingle: a session executing on a shared pool
// produces bit-identical audio to a sequential engine with the same
// config, even while sibling sessions churn concurrently.
func TestPoolSessionMatchesSingle(t *testing.T) {
	const cycles = 80

	ref, err := New(fastConfig(sched.NameSequential, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	_, engines := poolSessions(t, fastConfig("", 0), 3, 2, 3)

	refSums := make([]float64, cycles)
	gotSums := make([]float64, cycles)
	for c := 0; c < cycles; c++ {
		ref.Cycle(nil)
		refSums[c] = ref.Session().MasterOut().Peak()
	}

	done := make(chan struct{})
	go func() {
		// Churn the sibling sessions while session 0 is measured.
		for i := 0; i < cycles; i++ {
			engines[1].Cycle(nil)
			engines[2].Cycle(nil)
		}
		close(done)
	}()
	e0 := engines[0]
	for c := 0; c < cycles; c++ {
		e0.Cycle(nil)
		gotSums[c] = e0.Session().MasterOut().Peak()
	}
	<-done

	for c := 0; c < cycles; c++ {
		if refSums[c] != gotSums[c] {
			t.Fatalf("cycle %d: pool session peak %v differs from sequential %v",
				c, gotSums[c], refSums[c])
		}
	}
}

// TestEnginePrivatePoolStrategy: Strategy == "pool" without a shared
// Pool builds a private single-session pool and behaves like any other
// parallel strategy.
func TestEnginePrivatePoolStrategy(t *testing.T) {
	e, err := New(fastConfig(sched.NamePool, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Scheduler().Name() != sched.NamePool {
		t.Fatalf("scheduler = %q", e.Scheduler().Name())
	}
	if e.Scheduler().Threads() != 4 {
		t.Fatalf("threads = %d, want 4 (3 workers + caller)", e.Scheduler().Threads())
	}
	m := e.RunCycles(60)
	if m.Cycles() != 60 || m.GraphMeanMS() <= 0 {
		t.Fatalf("bad metrics: %+v", m)
	}
	if e.Session().MasterOut().Peak() == 0 {
		t.Fatal("silence from pool-strategy engine")
	}
}
