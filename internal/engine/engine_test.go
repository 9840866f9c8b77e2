package engine

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"djstar/internal/audio"
	"djstar/internal/graph"
	"djstar/internal/sched"
)

// fastConfig returns an engine config with no synthetic load (pure DSP).
func fastConfig(strategy string, threads int) Config {
	gc := graph.DefaultConfig()
	gc.TrackBars = 2
	return Config{
		Graph:    gc,
		Strategy: strategy,
		Threads:  threads,
	}
}

func TestEngineRunCycles(t *testing.T) {
	e, err := New(fastConfig(sched.NameBusyWait, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	m := e.RunCycles(100)
	if m.Cycles() != 100 {
		t.Fatalf("cycles = %d", m.Cycles())
	}
	if m.GraphMeanMS() <= 0 || m.APCMeanMS() <= m.GraphMeanMS() {
		t.Fatalf("component means inconsistent: graph %v APC %v",
			m.GraphMeanMS(), m.APCMeanMS())
	}
	if m.GraphSamplesMS != nil || m.APCSamplesMS != nil {
		t.Fatal("samples kept without KeepSamples")
	}
	if !strings.Contains(m.String(), "100 cycles") {
		t.Fatalf("String = %q", m.String())
	}

	// A zero-value window is ready to use, and keeping samples is its
	// property, not the engine's.
	var w Metrics
	w.KeepSamples = true
	for i := 0; i < 100; i++ {
		e.Cycle(&w)
	}
	if w.Cycles() != 100 || w.GraphMeanMS() <= 0 || w.APCMaxMS() < w.APCMeanMS() {
		t.Fatalf("zero-value window: %s", &w)
	}
	if len(w.GraphSamplesMS) != 100 || len(w.APCSamplesMS) != 100 {
		t.Fatal("samples not collected")
	}
	if got := e.Totals().Cycles(); got != 200 {
		t.Fatalf("engine totals = %d cycles, want both windows' 200", got)
	}
}

func TestEngineComponentsSumToAPC(t *testing.T) {
	e, err := New(fastConfig(sched.NameSequential, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	m := e.RunCycles(50)
	sum := m.TPMeanMS() + m.GPMeanMS() + m.GraphMeanMS() + m.VCMeanMS()
	if math.Abs(sum-m.APCMeanMS())/m.APCMeanMS() > 0.05 {
		t.Fatalf("TP+GP+Graph+VC = %v, APC = %v", sum, m.APCMeanMS())
	}
}

func TestEngineAllStrategies(t *testing.T) {
	for _, name := range sched.Strategies {
		e, err := New(fastConfig(name, 4))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m := e.RunCycles(30)
		if m.Cycles() != 30 {
			t.Fatalf("%s: %d cycles", name, m.Cycles())
		}
		if got := e.Scheduler().Name(); got != name {
			t.Fatalf("scheduler %q, want %q", got, name)
		}
		e.Close()
	}
}

func TestEngineDefaultsApplied(t *testing.T) {
	gc := graph.DefaultConfig()
	gc.TrackBars = 2
	e, err := New(Config{Graph: gc})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Scheduler().Name() != sched.NameBusyWait {
		t.Fatalf("default strategy = %s", e.Scheduler().Name())
	}
	if e.Scheduler().Threads() != 4 {
		t.Fatalf("default threads = %d", e.Scheduler().Threads())
	}
	if e.Plan().Len() != 67 {
		t.Fatalf("plan size = %d", e.Plan().Len())
	}
	if e.Session() == nil {
		t.Fatal("session nil")
	}
}

func TestEngineRejectsBadConfig(t *testing.T) {
	gc := graph.DefaultConfig()
	gc.Decks = 0
	if _, err := New(Config{Graph: gc}); err == nil {
		t.Fatal("bad graph config accepted")
	}
	gc = graph.DefaultConfig()
	gc.TrackBars = 2
	if _, err := New(Config{Graph: gc, Strategy: "bogus"}); err == nil {
		t.Fatal("bad strategy accepted")
	}
}

func TestTimecodeLockAndDVS(t *testing.T) {
	cfg := fastConfig(sched.NameSequential, 1)
	cfg.DVS = true
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.RunCycles(60) // plenty for a 16-bit position lock
	for d := 0; d < 4; d++ {
		if !e.TimecodeLocked(d) {
			t.Fatalf("deck %d decoder not locked after 60 cycles", d)
		}
	}
	// DVS: deck tempo follows the turntable speed (deck B turns at 0.97).
	if got := e.Session().Decks[1].Tempo(); math.Abs(got-0.97) > 0.05 {
		t.Fatalf("deck B tempo %v, want ~0.97 from timecode", got)
	}
	// Scratch: slow turntable A down and verify the deck follows.
	e.SetTurntableSpeed(0, 0.6)
	e.RunCycles(80)
	if got := e.Session().Decks[0].Tempo(); math.Abs(got-0.6) > 0.08 {
		t.Fatalf("deck A tempo %v, want ~0.6 after scratch", got)
	}
	// Out-of-range deck index is a no-op.
	e.SetTurntableSpeed(99, 2)
}

func TestMasterTempoTracksDecks(t *testing.T) {
	e, err := New(fastConfig(sched.NameSequential, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.RunCycles(300)
	// Deck tempos: 1.0, 0.97, 1.03, 0.99 -> mean 0.9975.
	if mt := e.MasterTempo(); math.Abs(mt-0.9975) > 0.01 {
		t.Fatalf("master tempo = %v, want ~0.9975", mt)
	}
}

func TestEngineCycleNilMetrics(t *testing.T) {
	e, err := New(fastConfig(sched.NameSequential, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Cycle(nil) // must not panic
}

func TestEngineCloseIdempotent(t *testing.T) {
	cfg := fastConfig(sched.NameBusyWait, 2)
	cfg.DisableGC = true
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.RunCycles(5)
	e.Close()
	e.Close() // second close is a no-op
}

func TestMeasureNodeDurations(t *testing.T) {
	gc := graph.DefaultConfig()
	gc.TrackBars = 2
	durs, plan, err := MeasureNodeDurations(gc, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(durs) != plan.Len() {
		t.Fatalf("%d durations for %d nodes", len(durs), plan.Len())
	}
	for i, d := range durs {
		if d < 0 || math.IsNaN(d) {
			t.Fatalf("node %d (%s) duration %v", i, plan.Names[i], d)
		}
	}
	// FX nodes must be measurably more expensive than control nodes even
	// at zero synthetic scale (they run real DSP).
	var fxSum, ctrlSum float64
	var fxN, ctrlN int
	for i, name := range plan.Names {
		switch {
		case strings.HasPrefix(name, "FX"):
			fxSum += durs[i]
			fxN++
		case strings.HasPrefix(name, "Ctrl"):
			ctrlSum += durs[i]
			ctrlN++
		}
	}
	if fxSum/float64(fxN) <= ctrlSum/float64(ctrlN) {
		t.Fatalf("FX avg %v not above control avg %v",
			fxSum/float64(fxN), ctrlSum/float64(ctrlN))
	}
	if _, _, err := MeasureNodeDurations(gc, 0); err == nil {
		t.Fatal("0 cycles accepted")
	}
}

func TestEngineHotPathAllocationFree(t *testing.T) {
	// The governor evaluates its window on the cycle thread; Window 1
	// makes every cycle a window boundary (thresholds out of reach, so
	// the level holds).
	gov := fastConfig(sched.NameBusyWait, 4)
	gov.Governor = GovernorConfig{Enabled: true, Window: 1, DeadlineMS: 1e6, GraphBudgetMS: 1e6}
	for cfgName, cfg := range map[string]Config{"governor off": fastConfig(sched.NameBusyWait, 4), "governor window 1": gov} {
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.RunCycles(10) // warm up
		var window Metrics
		for name, m := range map[string]*Metrics{"Cycle(nil)": nil, "Cycle(&m), samples off": &window} {
			if allocs := testing.AllocsPerRun(100, func() { e.Cycle(m) }); allocs != 0 {
				t.Errorf("%s, %s allocates %v per run, want 0", cfgName, name, allocs)
			}
		}
		e.Close()
	}
}

// TestEngineCycleAllocationFreeAfterMacroGrowth turns every effect's macro
// to 1 between cycles, which grows the echoes' lines and the beat
// mashers' captures on the control path (DESIGN.md §29); the cycles after
// it allocate nothing.
func TestEngineCycleAllocationFreeAfterMacroGrowth(t *testing.T) {
	e, err := New(fastConfig(sched.NameBusyWait, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.RunCycles(10)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, chain := range e.Session().FX {
		for _, fx := range chain {
			fx.SetMacro(1)
		}
	}
	runtime.ReadMemStats(&after)
	// Two echoes, each doubling two lines of 32768 float64s.
	if grown := after.TotalAlloc - before.TotalAlloc; grown < 1<<20 {
		t.Fatalf("SetMacro(1) allocated %d bytes, want the echo lines grown (1 MiB)", grown)
	}
	if allocs := testing.AllocsPerRun(100, func() { e.Cycle(nil) }); allocs != 0 {
		t.Fatalf("Cycle allocates %v per run after the growth, want 0", allocs)
	}
}

// TestRunRealtimeCallbackContract: between runs once per cycle, in order,
// on the cycle thread; returning false ends the run at that boundary; and
// Late is exactly the count the callback was last told. How many packets
// are late is the box's business — nothing here depends on it.
func TestRunRealtimeCallbackContract(t *testing.T) {
	e, err := New(fastConfig(sched.NameSequential, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const n, stopAt = 12, 7
	var calls []int
	lates := 0
	rep := e.RunRealtime(n, audio.StandardPacketPeriod, func(done, late int) bool {
		calls = append(calls, done)
		if got := e.Cycles(); got != uint64(done) {
			t.Errorf("between(%d) ran with %d cycles complete", done, got)
		}
		if late < lates || late > lates+1 {
			t.Errorf("between(%d): late count went %d → %d", done, lates, late)
		}
		lates = late
		return done < stopAt
	})
	if len(calls) != stopAt {
		t.Fatalf("between called %d times, want %d (stop honoured at the boundary)", len(calls), stopAt)
	}
	for i, done := range calls {
		if done != i+1 {
			t.Fatalf("call %d reported %d cycles done", i, done)
		}
	}
	if rep.Metrics.Cycles() != stopAt || e.Cycles() != stopAt {
		t.Fatalf("window %d cycles, engine %d, want %d", rep.Metrics.Cycles(), e.Cycles(), stopAt)
	}
	if rep.Late != lates || (rep.Late > 0) != (rep.MaxLatenessMS > 0) {
		t.Fatalf("Late = %d (max %.3f ms), callback was told of %d", rep.Late, rep.MaxLatenessMS, lates)
	}
	if rep := e.RunRealtime(3, 0, nil); rep.Metrics.Cycles() != 3 || rep.Late != 0 {
		t.Fatalf("nil callback, unpaced: %d cycles, %d late; want 3, 0", rep.Metrics.Cycles(), rep.Late)
	}
}

// TestPaceReleasesAndResyncs drives the packet clock's arithmetic with
// synthetic times (period 1000, cycle due at 5000): an early finish waits
// for its release, a late one runs the next at once and keeps the
// schedule, and only a finish more than resyncPeriods periods late
// restarts the clock from now. Unpaced never waits and is never late.
func TestPaceReleasesAndResyncs(t *testing.T) {
	const p, due = 1000, 5000
	for _, tc := range []struct {
		name                string
		now                 int64
		period              time.Duration
		late, release, next int64
	}{
		{"on time", 4200, p, -800, 5000, 6000},
		{"exactly due", 5000, p, 0, 5000, 6000},
		{"one late cycle catches up", 5300, p, 300, 5000, 6000},
		{"16 periods late still catches up", due + 16*p, p, 16 * p, 5000, 6000},
		{"past 16 periods resyncs to now + period", due + 16*p + 1, p, 16*p + 1, due + 16*p + 1, due + 17*p + 1},
		{"unpaced", 7777, 0, 0, 7777, 7777},
		{"negative period is unpaced", 7777, -1, 0, 7777, 7777},
	} {
		late, release, next := pace(due, tc.now, tc.period)
		if late != tc.late || release != tc.release || next != tc.next {
			t.Errorf("%s: pace(%d, %d, %d) = late %d, release %d, next %d; want %d, %d, %d",
				tc.name, due, tc.now, tc.period, late, release, next, tc.late, tc.release, tc.next)
		}
	}
}

// TestWatchdogMeasuresOnCycleClock drives watchdog.check with synthetic
// graph.NowNanos instants while a real node is wedged in flight: nothing
// before the wall, one record naming the node at the wall, nothing more
// for that cycle, and the next cycle can fire again. A stamp of 0 (the
// process's first nanosecond) arms like any other.
func TestWatchdogMeasuresOnCycleClock(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	g := graph.New()
	g.AddNode("Wedge", graph.SectionMaster, func() {
		close(entered)
		<-release
	})
	plan, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.New(sched.NameSequential, plan, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Execute()
	}()
	defer func() { close(release); <-done }()
	<-entered

	const wall = 20 * time.Millisecond
	var got []StallRecord
	w := newWatchdog(s.FaultState(), wall, func(r StallRecord) { got = append(got, r) })
	const t0 = int64(time.Hour) // any stamp: the interval is all that counts
	w.arm(7, t0)
	for _, step := range []struct {
		now  int64
		want int
	}{
		{t0 + int64(wall) - 1, 0},
		{t0 + int64(wall), 1},
		{t0 + int64(time.Hour), 1}, // the same cycle reports once
	} {
		w.check(step.now)
		if len(got) != step.want {
			t.Fatalf("check(t0%+d ns): %d records, want %d", step.now-t0, len(got), step.want)
		}
	}
	if r := got[0]; r.Cycle != 7 || r.Name != "Wedge" || r.Node != 0 || r.Inflight != "w0:Wedge" || r.ElapsedMS != 20 {
		t.Fatalf("stall record = %+v, want cycle 7, Wedge in flight on w0, 20 ms", r)
	}
	w.arm(8, t0+int64(2*time.Hour))
	w.check(t0 + int64(2*time.Hour) + int64(wall))
	if len(got) != 2 || got[1].Cycle != 8 || w.stalls.Load() != 2 || w.last.Load().Cycle != 8 {
		t.Fatalf("next cycle: records %+v, stalls %d; want a second record for cycle 8", got, w.stalls.Load())
	}
	w.disarm()
	w.check(t0 + int64(3*time.Hour))
	if len(got) != 2 {
		t.Fatal("a disarmed watchdog reported a stall")
	}
	w.arm(9, 0)
	if w.armed.Load() == 0 {
		t.Fatal("a stamp of 0 reads as disarmed")
	}
}
