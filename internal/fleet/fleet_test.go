package fleet

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"djstar/internal/admission"
	"djstar/internal/engine"
	"djstar/internal/graph"
	"djstar/internal/sched"
)

func testConfig() Config {
	gc := graph.DefaultConfig()
	gc.TrackBars = 2
	cfg := Config{
		Shards:          2,
		WorkersPerShard: 1,
	}
	cfg.Engine.Graph = gc
	return cfg
}

func TestFleetAddRemoveSession(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, p, err := f.AddSession(engine.SessionSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if s.ID() != "s-000000" {
		t.Fatalf("auto ID = %q", s.ID())
	}
	if p.Shard != s.Shard() || p.Shard < 0 {
		t.Fatalf("placement shard %d, session shard %d", p.Shard, s.Shard())
	}
	if len(p.Candidates) != 2 {
		t.Fatalf("placement probed %d shards, want 2", len(p.Candidates))
	}
	// The session must actually be cycling on the packet clock.
	deadline := time.Now().Add(5 * time.Second)
	for s.Engine().Cycles() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("session driver not advancing")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, _, err := f.AddSession(engine.SessionSpec{ID: "s-000000"}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate ID error = %v", err)
	}
	if err := f.RemoveSession(s.ID()); err != nil {
		t.Fatal(err)
	}
	if got := f.Session(s.ID()); got != nil {
		t.Fatal("session still registered after remove")
	}
	if n := f.shards[s.Shard()].ctl.Len(); n != 0 {
		t.Fatalf("controller still tracks %d sessions after remove", n)
	}
}

// setShardProcs gives every shard of a fleet that holds no session yet
// procs analytical processors, so aggregate bounds do not depend on the
// machine's CPU count.
func setShardProcs(f *Fleet, procs int) {
	for _, sh := range f.shards {
		sh.procs = procs
		sh.ctl = admission.NewController(procs, f.acfg)
	}
}

// TestPlacementHeadroomBeatsRoundRobin pre-loads shard 0 with a heavy
// ballast registration and shows that analytical-headroom placement
// (a) sends the first session to the empty shard with the larger
// probed headroom, (b) admits strictly more sessions than blind
// round-robin on the same asymmetric fleet, and (c) once no shard fits,
// refuses with admission.ErrOverBudget and leaves every controller as
// it was.
func TestPlacementHeadroomBeatsRoundRobin(t *testing.T) {
	// Probe the per-session load first so the envelope can be sized to
	// "three plain sessions per shard" regardless of machine. Scale 1
	// gives paper-scale analytical costs; with a zero calibration the
	// kernels still run cost-free, so the test stays fast.
	base := testConfig()
	base.Engine.Graph.Scale = 1
	base.Engine.Graph.Calibration = graph.Calibration{NanosPerUnit: 1e12}
	probe, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := probe.report(probe.cfg.Engine.Graph)
	if err != nil {
		probe.Close()
		t.Fatal(err)
	}
	W, CP, B := rep.TotalWorkUS, rep.CritPathUS, rep.BaseUS
	probe.Close()
	if W <= 0 || CP <= 0 {
		t.Fatalf("degenerate report: work %v cp %v", W, CP)
	}

	const margin = 1.25
	cfg := testConfig()
	cfg.Engine.Graph.Scale = 1
	cfg.Engine.Graph.Calibration = graph.Calibration{NanosPerUnit: 1e12}
	cfg.Admission = admission.Config{
		Margin: margin,
		// Exactly three plain sessions fit on one shard (m = 1):
		// bound(n) = margin × (B + CP + (nW − CP)).
		PeriodUS: margin * (B + CP + (3*W - CP)) * 1.0001,
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	setShardProcs(f, 1)

	// Ballast on shard 0: 1.5 sessions' worth of permanent work, so
	// shard 0 can absorb only one more session.
	ballast := &admission.Report{TotalWorkUS: 1.5 * W, CritPathUS: 0, BaseUS: 0}
	if err := f.shards[0].ctl.TryAdmit("ballast", ballast); err != nil {
		t.Fatalf("ballast refused: %v", err)
	}

	var placements []int
	admitted := 0
	for i := 0; i < 4; i++ {
		s, p, err := f.AddSession(engine.SessionSpec{})
		if err != nil {
			t.Fatalf("session %d refused: %v", i, err)
		}
		admitted++
		placements = append(placements, p.Shard)
		// Every decision must be justified: no fitting candidate may
		// have strictly more headroom than the chosen shard.
		for _, c := range p.Candidates {
			if c.Fits && c.HeadroomUS > p.HeadroomUS+1e-6 {
				t.Fatalf("session %d placed on shard %d (headroom %.0f) but shard %d offered %.0f",
					i, p.Shard, p.HeadroomUS, c.Shard, c.HeadroomUS)
			}
		}
		_ = s
	}
	if placements[0] != 1 {
		t.Fatalf("first session went to ballasted shard 0 (placements %v)", placements)
	}
	if admitted != 4 {
		t.Fatalf("headroom placement admitted %d/4", admitted)
	}
	before := [][]admission.SessionBound{f.shards[0].ctl.Sessions(), f.shards[1].ctl.Sessions()}
	if _, p, err := f.AddSession(engine.SessionSpec{ID: "fifth"}); !errors.Is(err, admission.ErrOverBudget) {
		t.Fatalf("fifth session: err = %v, want ErrOverBudget", err)
	} else if p.Shard != -1 {
		t.Fatalf("refused session placed on shard %d", p.Shard)
	}
	after := [][]admission.SessionBound{f.shards[0].ctl.Sessions(), f.shards[1].ctl.Sessions()}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("refusal changed the controllers: %+v -> %+v", before, after)
	}

	// Round-robin on an identical fleet: alternate shards blindly.
	rr := []*admission.Controller{
		admission.NewController(1, cfg.Admission),
		admission.NewController(1, cfg.Admission),
	}
	if err := rr[0].TryAdmit("ballast", ballast); err != nil {
		t.Fatal(err)
	}
	rrAdmitted := 0
	for i := 0; i < 4; i++ {
		if rr[i%2].TryAdmit(f.Sessions()[i].ID(), rep) == nil {
			rrAdmitted++
		}
	}
	if rrAdmitted >= admitted {
		t.Fatalf("round-robin admitted %d, headroom %d — headroom should win on asymmetric load",
			rrAdmitted, admitted)
	}
}

// TestDrainMigratesAllExactlyOnce drains a shard under live paced load
// and checks the three invariants: every session leaves, every session
// keeps advancing, and across the whole run every node executed exactly
// once per cycle (the observer counts survive the migration).
func TestDrainMigratesAllExactlyOnce(t *testing.T) {
	cfg := testConfig()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	const n = 6
	for i := 0; i < n; i++ {
		if _, _, err := f.AddSession(engine.SessionSpec{}); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	time.Sleep(30 * time.Millisecond)

	pre := map[string]uint64{}
	var onShard0 int
	for _, s := range f.Sessions() {
		pre[s.ID()] = s.Engine().Cycles()
		if s.Shard() == 0 {
			onShard0++
		}
	}
	if onShard0 == 0 {
		t.Fatal("placement put nothing on shard 0")
	}

	res, err := f.Drain(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Moved != onShard0 || res.Failed != 0 {
		t.Fatalf("drain moved %d (want %d), failed %d: %v", res.Moved, onShard0, res.Failed, res.Errors)
	}
	for _, s := range f.Sessions() {
		if s.Shard() == 0 {
			t.Fatalf("session %s still on drained shard", s.ID())
		}
		if snap := s.Engine().Snapshot(); snap.Shard != "1" {
			t.Fatalf("session %s snapshot shard = %q after migration", s.ID(), snap.Shard)
		}
	}

	// Placements refuse the draining shard; Undrain reopens it.
	if s, p, err := f.AddSession(engine.SessionSpec{}); err != nil || p.Shard != 1 {
		t.Fatalf("placement during drain: shard %d err %v", p.Shard, err)
	} else if err := f.RemoveSession(s.ID()); err != nil {
		t.Fatal(err)
	}
	if err := f.Undrain(0); err != nil {
		t.Fatal(err)
	}
	if _, p, err := f.AddSession(engine.SessionSpec{}); err != nil || p.Shard != 0 {
		t.Fatalf("post-undrain placement: shard %d err %v (empty shard 0 has max headroom)", p.Shard, err)
	}

	// Everyone keeps cycling after the drain. Poll with a deadline: under
	// -race on a small host, 8 paced sessions share one CPU and a fixed
	// sleep is not enough for every driver to get a turn.
	deadline := time.Now().Add(10 * time.Second)
	for _, s := range f.Sessions() {
		for s.Engine().Cycles() <= pre[s.ID()] {
			if time.Now().After(deadline) {
				t.Fatalf("session %s stopped advancing across drain", s.ID())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Exactly-once: freeze the fleet, then compare per-node execution
	// counts against each engine's cycle count.
	engines := map[string]*engine.Engine{}
	for _, s := range f.Sessions() {
		engines[s.ID()] = s.Engine()
	}
	f.Close()
	for id, e := range engines {
		cycles := e.Cycles()
		if cycles == 0 {
			t.Fatalf("session %s ran no cycles", id)
		}
		col := e.Collector()
		if col == nil {
			t.Fatalf("session %s has no collector", id)
		}
		for _, ns := range col.NodeStats() {
			if ns.Count != cycles {
				t.Fatalf("session %s node %s executed %d times over %d cycles — lost or doubled work across migration",
					id, ns.Name, ns.Count, cycles)
			}
		}
	}
}

// TestReportFollowsGraphShape: two specs at the same scale but with
// different graph shapes must each be placed and registered with their
// own work and critical path, not the first shape's cached report.
func TestReportFollowsGraphShape(t *testing.T) {
	cfg := testConfig()
	cfg.Engine.Graph.Scale = 1
	cfg.Engine.Graph.Calibration = graph.Calibration{NanosPerUnit: 1e12} // analytical costs, free kernels
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	big, _, err := f.AddSession(engine.SessionSpec{ID: "four-decks"})
	if err != nil {
		t.Fatal(err)
	}
	g := cfg.Engine.Graph
	g.Decks = 1
	small, _, err := f.AddSession(engine.SessionSpec{ID: "one-deck", Graph: &g})
	if err != nil {
		t.Fatal(err)
	}
	if small.rep.TotalWorkUS >= big.rep.TotalWorkUS || small.BoundUS() >= big.BoundUS() {
		t.Fatalf("1-deck session registered work %.0f µs, bound %.0f µs; 4-deck %.0f µs, %.0f µs — want strictly smaller",
			small.rep.TotalWorkUS, small.BoundUS(), big.rep.TotalWorkUS, big.BoundUS())
	}
}

// TestPlacementRespectsSessionSlots: a shard whose pool slots are all
// taken is no candidate, however much analytical headroom it offers —
// the session goes to a shard that fits and has a free slot — and when
// every slot is taken the fleet refuses with sched.ErrPoolFull and no
// registration is left behind.
func TestPlacementRespectsSessionSlots(t *testing.T) {
	cfg := testConfig()
	cfg.Engine.Graph.Scale = 1
	cfg.Engine.Graph.Calibration = graph.Calibration{NanosPerUnit: 1e12} // analytical costs, free kernels
	cfg.SessionsPerShard = 2
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	setShardProcs(f, 2)
	// The 4-deck session takes shard 0; the light 1-deck sessions prefer
	// shard 1's headroom until its two slots are gone.
	if _, _, err := f.AddSession(engine.SessionSpec{ID: "four-decks"}); err != nil {
		t.Fatal(err)
	}
	g := cfg.Engine.Graph
	g.Decks = 1
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("one-deck-%d", i)
		_, p, err := f.AddSession(engine.SessionSpec{ID: id, Graph: &g})
		if err != nil {
			t.Fatalf("%s: %v (candidates %+v)", id, err, p.Candidates)
		}
		for _, c := range p.Candidates {
			if c.Fits && c.Sessions >= cfg.SessionsPerShard {
				t.Fatalf("%s: shard %d listed as fitting with %d sessions in %d slots", id, c.Shard, c.Sessions, cfg.SessionsPerShard)
			}
		}
	}
	for _, sh := range f.shards {
		if n := sh.ctl.Len(); n != cfg.SessionsPerShard {
			t.Fatalf("shard %d holds %d sessions, want %d", sh.id, n, cfg.SessionsPerShard)
		}
	}
	_, p, err := f.AddSession(engine.SessionSpec{ID: "one-too-many", Graph: &g})
	if !errors.Is(err, sched.ErrPoolFull) {
		t.Fatalf("err = %v, want ErrPoolFull", err)
	}
	if p.Shard != -1 || len(p.Candidates) != len(f.shards) {
		t.Fatalf("placement %+v, want no shard and every shard a candidate", p)
	}
	for _, sh := range f.shards {
		if n := sh.ctl.Len(); n != cfg.SessionsPerShard {
			t.Fatalf("shard %d holds %d registrations after the refusal, want %d", sh.id, n, cfg.SessionsPerShard)
		}
	}
}

// TestShardStatusReportsConfiguredSLOTarget: a shard's SLO rollup states
// the budget the fleet was configured with — also when no session is on
// the shard to read it from.
func TestShardStatusReportsConfiguredSLOTarget(t *testing.T) {
	cfg := testConfig()
	cfg.Engine.Telemetry.SLO.TargetPer10k = 2
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, _, err := f.AddSession(engine.SessionSpec{})
	if err != nil {
		t.Fatal(err)
	}
	for shard := 0; shard < 2; shard++ {
		st, err := f.ShardStatus(shard)
		if err != nil {
			t.Fatal(err)
		}
		if hosts := shard == s.Shard(); (st.Sessions == 1) != hosts || st.Sessions > 1 {
			t.Fatalf("shard %d hosts %d sessions; the session is on shard %d", shard, st.Sessions, s.Shard())
		}
		if st.SLO.TargetPer10k != 2 {
			t.Errorf("shard %d (%d sessions): target_per_10k = %v, want the configured 2", shard, st.Sessions, st.SLO.TargetPer10k)
		}
	}

	// The default stays the paper's 5 per 10k.
	d, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if st, _ := d.ShardStatus(0); st.SLO.TargetPer10k != 5 || !st.SLO.Healthy {
		t.Errorf("default empty shard: %+v, want target 5, healthy", st.SLO)
	}
}

// TestRemoveRacingDrainLeavesNoRegistration races RemoveSession against a
// Drain of the same session's shard. Whichever wins, every controller
// must end up registering exactly the sessions its shard hosts: the
// migration moves the registration on the driver, where RemoveSession
// reads it once the driver has stopped.
func TestRemoveRacingDrainLeavesNoRegistration(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// A standing session that the drains move back and forth.
	if _, _, err := f.AddSession(engine.SessionSpec{ID: "keep"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		s, _, err := f.AddSession(engine.SessionSpec{})
		if err != nil {
			t.Fatal(err)
		}
		from := s.Shard()
		start := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			_, _ = f.Drain(from) // a lost race is a reported failure, not an error
		}()
		go func() {
			defer wg.Done()
			<-start
			if err := f.RemoveSession(s.ID()); err != nil {
				t.Error(err)
			}
		}()
		close(start)
		wg.Wait()
		if err := f.Undrain(from); err != nil {
			t.Fatal(err)
		}
		for _, sh := range f.shards {
			var registered, hosted []string
			for _, b := range sh.ctl.Sessions() {
				registered = append(registered, b.ID)
			}
			for _, h := range f.Sessions() {
				if h.Shard() == sh.id {
					hosted = append(hosted, h.ID())
				}
			}
			if !reflect.DeepEqual(registered, hosted) {
				t.Fatalf("round %d: shard %d registers %v, hosts %v", i, sh.id, registered, hosted)
			}
		}
	}
}
