package sched

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"djstar/internal/graph"
)

// schedulerCase builds one scheduler of each kind for the conformance
// suite. The cleanup func tears down supporting state (e.g. the shared
// pool behind a session) and must be safe to call after Close.
type schedulerCase struct {
	name  string
	build func(t *testing.T, p *graph.Plan, o Options) (Scheduler, func())
}

// newNames lists every name New accepts: the private-worker strategies
// plus NamePool (through New, a private single-session pool).
func newNames() []string { return append(append([]string{}, AllStrategies...), NamePool) }

func conformanceCases() []schedulerCase {
	none := func() {}
	var cases []schedulerCase
	// Each asked for 3 threads; seq ignores it.
	for _, name := range newNames() {
		name := name
		cases = append(cases, schedulerCase{name, func(t *testing.T, p *graph.Plan, o Options) (Scheduler, func()) {
			o.Threads = 3
			s, err := New(name, p, o)
			if err != nil {
				t.Fatal(err)
			}
			return s, none
		}})
	}
	cases = append(cases, schedulerCase{"pool-attach", func(t *testing.T, p *graph.Plan, o Options) (Scheduler, func()) {
		pool, err := NewPool(2, 1)
		if err != nil {
			t.Fatal(err)
		}
		s, err := pool.Attach(p, o)
		if err != nil {
			t.Fatal(err)
		}
		return s, pool.Close
	}})
	return cases
}

// conformancePlan returns a fresh plan plus its execution trace.
func conformancePlan(t *testing.T) (*graph.Plan, *graph.ExecTrace) {
	t.Helper()
	g, tr := graph.RandomDAG(graph.RandomSpec{Nodes: 18, EdgeProb: 0.2, Seed: 77})
	p, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return p, tr
}

// TestLifecycleCloseIdempotent: calling Close twice (or more) must be a
// no-op the second time for every strategy.
func TestLifecycleCloseIdempotent(t *testing.T) {
	for _, c := range conformanceCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			p, tr := conformancePlan(t)
			s, cleanup := c.build(t, p, Options{})
			defer cleanup()
			tr.Reset()
			s.Execute()
			if err := tr.Check(p); err != nil {
				t.Fatal(err)
			}
			s.Close()
			s.Close() // must not panic, deadlock or double-close channels
			s.Close()
		})
	}
}

// TestLifecycleExecuteAfterClosePanics: the uniform contract is a panic
// with a recognizable message, never a hang or a silent no-op.
func TestLifecycleExecuteAfterClosePanics(t *testing.T) {
	for _, c := range conformanceCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			p, _ := conformancePlan(t)
			s, cleanup := c.build(t, p, Options{})
			defer cleanup()
			s.Execute()
			s.Close()
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("Execute after Close did not panic")
				}
				if msg, ok := r.(string); !ok || msg != "sched: Execute called after Close" {
					t.Fatalf("unexpected panic value %v", r)
				}
			}()
			s.Execute()
		})
	}
}

// TestLifecycleStageSwapRacesClose: StageSwap is documented safe from
// any goroutine, so a stager racing Close must be clean under -race on
// every executor, and once Close has returned StageSwap must refuse.
func TestLifecycleStageSwapRacesClose(t *testing.T) {
	for _, c := range conformanceCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			p, _ := conformancePlan(t)
			next, _ := conformancePlan(t)
			for round := 0; round < 20; round++ {
				s, cleanup := c.build(t, p, Options{})
				s.Execute()
				started := make(chan struct{})
				done := make(chan struct{})
				go func() {
					defer close(done)
					close(started)
					for i := 0; i < 50; i++ {
						_ = s.StageSwap(Swap{Plan: next}) // either outcome is legal mid-race
					}
				}()
				<-started
				s.Close()
				<-done
				if err := s.StageSwap(Swap{Plan: next}); err == nil || !strings.Contains(err.Error(), "StageSwap after Close") {
					t.Fatalf("StageSwap after Close = %v", err)
				}
				cleanup()
			}
		})
	}
}

// TestFaultStateOutlivesSwap: FaultState() is one object for the
// scheduler's whole life — a holder that fetched it before a topology
// swap keeps steering the session after it.
func TestFaultStateOutlivesSwap(t *testing.T) {
	for _, c := range conformanceCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			p, _ := conformancePlan(t)
			next, ntr := conformancePlan(t)
			s, cleanup := c.build(t, p, Options{})
			defer cleanup()
			defer s.Close()
			fs := s.FaultState()
			if fs == nil || fs.Plan() != p {
				t.Fatalf("FaultState() = %v over plan %p, want plan %p", fs, fs.Plan(), p)
			}
			s.Execute()
			if err := s.StageSwap(Swap{Plan: next}); err != nil {
				t.Fatal(err)
			}
			if !s.AdoptStaged() {
				t.Fatal("staged swap not adopted")
			}
			if got := s.FaultState(); got != fs {
				t.Fatalf("FaultState() changed across AdoptStaged: %p -> %p", fs, got)
			}
			if fs.Plan() != next {
				t.Fatal("held fault state does not see the adopted plan")
			}
			// A shed issued through the pointer taken before the swap
			// decides what the executor runs after it.
			fs.SetNodeShed(3, true)
			ntr.Reset()
			s.Execute()
			if ntr.Stamp(3) != 0 {
				t.Fatal("node shed through the pre-swap pointer still ran")
			}
			if ntr.Stamp(4) == 0 {
				t.Fatal("unshed node did not run")
			}
		})
	}
}

// TestLifecycleObserverConformance: an Observer fixed at construction
// must see every node of every cycle on every strategy — BeginCycle and
// EndCycle bracketing each Execute, one Record per node — without
// disturbing execution.
func TestLifecycleObserverConformance(t *testing.T) {
	for _, c := range conformanceCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			p, tr := conformancePlan(t)
			trace := newRecorder(p.Len())
			s, cleanup := c.build(t, p, Options{Observer: trace})
			defer cleanup()
			defer s.Close()

			for cycle := 0; cycle < 5; cycle++ {
				tr.Reset()
				s.Execute()
				if err := tr.Check(p); err != nil {
					t.Fatalf("cycle %d: %v", cycle, err)
				}
				for i, e := range trace.Events() {
					if e.Worker < 0 {
						t.Fatalf("cycle %d: node %d unobserved", cycle, i)
					}
					if int(e.Worker) >= s.Threads() {
						t.Fatalf("cycle %d: node %d observed on worker %d of %d",
							cycle, i, e.Worker, s.Threads())
					}
					if e.End < e.Start {
						t.Fatalf("cycle %d: node %d has end %d < start %d",
							cycle, i, e.End, e.Start)
					}
				}
				if trace.Makespan() <= 0 {
					t.Fatalf("cycle %d: no makespan", cycle)
				}
			}
		})
	}
}

// TestLifecycleFactoryStaticRegistered: the doc/behaviour mismatch
// regression — New must accept NameStatic (round-robin default
// assignment) and list every known strategy in its error message.
func TestLifecycleFactoryStaticRegistered(t *testing.T) {
	p, tr := conformancePlan(t)
	s, err := New(NameStatic, p, Options{Threads: 4})
	if err != nil {
		t.Fatalf("New(%q): %v", NameStatic, err)
	}
	defer s.Close()
	if s.Name() != NameStatic || s.Threads() != 4 {
		t.Fatalf("Name/Threads = %s/%d", s.Name(), s.Threads())
	}
	for cycle := 0; cycle < 20; cycle++ {
		tr.Reset()
		s.Execute()
		if err := tr.Check(p); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
	}
	// Thread validation applies to the factory's static path too
	// (Threads 0 means "default to 1"; negative is invalid).
	if _, err := New(NameStatic, p, Options{Threads: -1}); err == nil {
		t.Fatal("static accepted negative threads")
	}
	if _, err := New(NameStatic, p, Options{Threads: p.Len() + 1}); err == nil {
		t.Fatal("static accepted more threads than nodes")
	}
	// Unknown strategies name every accepted one.
	_, err = New("bogus", p, Options{Threads: 2})
	if err == nil {
		t.Fatal("unknown strategy accepted")
	}
	for _, name := range AllStrategies {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not mention strategy %q", err, name)
		}
	}
}

// --- fault-tolerance conformance -------------------------------------

// faultDAG builds a fixed DAG whose victim node panics while the armed
// counter is positive (one decrement per execution, so arming with K
// injects exactly K consecutive faults). The victim sits mid-graph with
// predecessors (1, 2) and successors (8, 9 — and 11 transitively), so a
// contained panic must still release downstream nodes or the cycle
// never completes.
func faultDAG(t *testing.T) (*graph.Plan, *graph.ExecTrace, *atomic.Int32) {
	t.Helper()
	const n = 12
	g := graph.New()
	tr := graph.NewExecTrace(n)
	armed := &atomic.Int32{}
	for i := 0; i < n; i++ {
		i := i
		run := func() { tr.Record(i) }
		if i == faultVictim {
			run = func() {
				if armed.Load() > 0 {
					armed.Add(-1)
					panic("injected: victim down")
				}
				tr.Record(i)
			}
		}
		g.AddNode(fmt.Sprintf("n%d", i), graph.DeckSection(i), run)
	}
	for _, e := range [][2]int{
		{0, 1}, {0, 2}, {0, 3}, {0, 4},
		{1, 5}, {2, 5}, {5, 8}, {5, 9},
		{3, 6}, {4, 7}, {6, 10}, {7, 10},
		{8, 11}, {9, 11},
	} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	p, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return p, tr, armed
}

const faultVictim = 5

// checkTolerant verifies a cycle in which the victim was allowed to
// fault or be skipped: every other node ran exactly once, dependency
// order holds among the nodes that did run.
func checkTolerant(p *graph.Plan, tr *graph.ExecTrace) error {
	for i := 0; i < p.Len(); i++ {
		if i == faultVictim {
			continue
		}
		if tr.Stamp(i) == 0 {
			return fmt.Errorf("node %d (%s) never executed", i, p.Names[i])
		}
	}
	for i := 0; i < p.Len(); i++ {
		if tr.Stamp(i) == 0 {
			continue
		}
		for _, d := range p.PredsOf(int32(i)) {
			if s := tr.Stamp(int(d)); s != 0 && s > tr.Stamp(i) {
				return fmt.Errorf("node %d ran before dependency %d", i, d)
			}
		}
	}
	return nil
}

// TestFaultToleranceConformance: every strategy must contain an injected
// mid-cycle node panic — the cycle completes with all other nodes run
// exactly once, the node is quarantined after QuarantineAfter
// consecutive faults, a probe restores it, and subsequent cycles are
// fully clean.
func TestFaultToleranceConformance(t *testing.T) {
	const probeEvery = 8
	for _, c := range conformanceCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			p, tr, armed := faultDAG(t)
			s, cleanup := c.build(t, p, Options{})
			defer cleanup()
			defer s.Close()
			s.FaultState().SetFaultPolicy(FaultPolicy{ProbeEvery: probeEvery})
			var mu sync.Mutex
			var recs []FaultRecord
			s.FaultState().SetFaultHandler(func(r FaultRecord) {
				mu.Lock()
				recs = append(recs, r)
				mu.Unlock()
			})

			cycle := func(tolerant bool) {
				t.Helper()
				tr.Reset()
				s.Execute()
				var err error
				if tolerant {
					err = checkTolerant(p, tr)
				} else {
					err = tr.Check(p)
				}
				if err != nil {
					t.Fatal(err)
				}
			}

			cycle(false) // clean warm-up
			cycle(false)

			armed.Store(QuarantineAfter)
			for i := 0; i < QuarantineAfter; i++ {
				cycle(true) // faulting: victim dies, cycle still completes
			}
			if got := s.FaultState().Faults().Recovered; got != QuarantineAfter {
				t.Fatalf("recovered = %d, want %d", got, QuarantineAfter)
			}
			if !s.FaultState().Quarantined(faultVictim) {
				t.Fatal("victim not quarantined after consecutive faults")
			}
			mu.Lock()
			if len(recs) != QuarantineAfter {
				t.Fatalf("handler saw %d records, want %d", len(recs), QuarantineAfter)
			}
			for _, r := range recs {
				if r.Node != faultVictim || r.Name != p.Names[faultVictim] || r.Err == nil {
					t.Fatalf("bad fault record %+v", r)
				}
			}
			if !recs[len(recs)-1].Quarantined {
				t.Fatal("last fault record did not report the quarantine trip")
			}
			mu.Unlock()

			// Quarantined cycles skip the victim; everything else runs.
			// After ProbeEvery cycles a probe re-runs it (now healthy),
			// lifting the quarantine.
			for i := 0; i < probeEvery+1; i++ {
				cycle(true)
			}
			if s.FaultState().Quarantined(faultVictim) {
				t.Fatal("probe did not lift the quarantine")
			}
			if fs := s.FaultState().Faults(); fs.Restored != 1 || fs.Probes < 1 {
				t.Fatalf("fault stats after probe = %+v", fs)
			}

			cycle(false) // fully clean again
			cycle(false)
			if got := s.FaultState().Faults().Recovered; got != QuarantineAfter {
				t.Fatalf("recovered grew to %d after restoration", got)
			}
		})
	}
}

// TestPoolFaultIsolationAcrossSessions: three sessions share one pool;
// one session's node panics repeatedly. Its siblings must never observe
// a fault, and every session's every cycle must complete correctly.
func TestPoolFaultIsolationAcrossSessions(t *testing.T) {
	const sessions, cycles = 3, 60
	pool, err := NewPool(2, sessions)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	type sess struct {
		s     *PoolSession
		plan  *graph.Plan
		tr    *graph.ExecTrace
		armed *atomic.Int32
	}
	var ss []sess
	for i := 0; i < sessions; i++ {
		p, tr, armed := faultDAG(t)
		s, err := pool.Attach(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		s.FaultState().SetFaultPolicy(FaultPolicy{ProbeEvery: 8})
		ss = append(ss, sess{s, p, tr, armed})
	}

	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for i := range ss {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := ss[i]
			for c := 0; c < cycles; c++ {
				if i == 0 && c == 10 {
					x.armed.Store(3) // session 0 faults mid-run
				}
				x.tr.Reset()
				x.s.Execute()
				if err := checkTolerant(x.plan, x.tr); err != nil {
					errs[i] = fmt.Errorf("session %d cycle %d: %w", i, c, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	if got := ss[0].s.FaultState().Faults().Recovered; got != 3 {
		t.Fatalf("faulting session recovered = %d, want 3", got)
	}
	if ss[0].s.FaultState().Quarantined(faultVictim) {
		t.Fatal("faulting session's victim still quarantined (probe never ran)")
	}
	for i := 1; i < sessions; i++ {
		if fs := ss[i].s.FaultState().Faults(); fs.Recovered != 0 || fs.Quarantined != 0 {
			t.Fatalf("innocent session %d has fault stats %+v", i, fs)
		}
		if ss[i].s.FaultState().Quarantined(faultVictim) {
			t.Fatalf("innocent session %d quarantined its victim", i)
		}
	}
}

// TestFaultStateCarriedThroughMigration: AttachMigrated hands the
// session's FaultState object to the new executor — not a copy — so a
// pointer taken before the move reads the carried quarantine/shed state
// and still steers the session afterwards; a wider destination than the
// state was sized for is refused.
func TestFaultStateCarriedThroughMigration(t *testing.T) {
	src, err := NewPool(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst, err := NewPool(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	wide, err := NewPool(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer wide.Close()

	p, tr, armed := faultDAG(t)
	old, err := src.Attach(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fs := old.FaultState()
	fs.SetFaultPolicy(FaultPolicy{ProbeEvery: 1 << 30})
	const shedID = 7
	armed.Store(QuarantineAfter)
	for i := 0; i < QuarantineAfter; i++ {
		tr.Reset()
		old.Execute()
	}
	fs.SetNodeShed(shedID, true)
	if !fs.Quarantined(faultVictim) || !fs.Shed(shedID) {
		t.Fatal("setup: victim not quarantined / node not shed")
	}

	if _, err := wide.AttachMigrated(old, Options{}); err == nil {
		t.Fatal("AttachMigrated accepted a pool wider than the fault state")
	}
	ns, err := dst.AttachMigrated(old, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	if ns.FaultState() != fs {
		t.Fatalf("migration replaced the fault state: %p -> %p", fs, ns.FaultState())
	}
	if !fs.Quarantined(faultVictim) || !fs.Shed(shedID) || fs.Faults().Recovered != QuarantineAfter {
		t.Fatalf("state lost in migration: quarantined=%v shed=%v faults=%+v",
			fs.Quarantined(faultVictim), fs.Shed(shedID), fs.Faults())
	}
	tr.Reset()
	ns.Execute()
	if tr.Stamp(faultVictim) != 0 || tr.Stamp(shedID) != 0 {
		t.Fatal("quarantined/shed node ran on the new executor")
	}
	// The old pointer still steers: un-shed through it, the node runs.
	fs.SetNodeShed(shedID, false)
	tr.Reset()
	ns.Execute()
	if tr.Stamp(shedID) == 0 {
		t.Fatal("un-shed through the pre-migration pointer had no effect")
	}
	if err := checkTolerant(p, tr); err != nil {
		t.Fatal(err)
	}
}
