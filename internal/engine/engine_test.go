package engine

import (
	"math"
	"strings"
	"testing"
	"time"

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
	e, err := New(fastConfig(sched.NameBusyWait, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.RunCycles(10) // warm up
	var window Metrics
	for name, m := range map[string]*Metrics{"Cycle(nil)": nil, "Cycle(&m), samples off": &window} {
		if allocs := testing.AllocsPerRun(100, func() { e.Cycle(m) }); allocs != 0 {
			t.Errorf("%s allocates %v per run, want 0", name, allocs)
		}
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
	rep := e.RunRealtime(n, func(done, late int) bool {
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
	if rep := e.RunRealtime(3, nil); rep.Metrics.Cycles() != 3 {
		t.Fatalf("nil callback: %d cycles, want 3", rep.Metrics.Cycles())
	}
}

// TestWatchdogMeasuresOnCycleClock: the watchdog's interval is taken on
// graph.NowNanos from the stamp the cycle hands it — never from the wall
// clock, which an NTP or VM step can move by more than the stall wall —
// and a stamp of 0 (the process's first nanosecond) arms like any other.
func TestWatchdogMeasuresOnCycleClock(t *testing.T) {
	e, err := New(fastConfig(sched.NameSequential, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	got := make(chan StallRecord, 1)
	w := newWatchdog(e.faults, 20*time.Millisecond, func(r StallRecord) { got <- r })
	defer w.close()

	// An execution armed an hour ago on the monotonic base: the first poll
	// reports it, with the elapsed time the two monotonic stamps imply.
	const hourMS = float64(time.Hour / time.Millisecond)
	w.arm(7, graph.NowNanos()-int64(time.Hour))
	select {
	case r := <-got:
		if r.Cycle != 7 || r.Node != -1 || r.ElapsedMS < hourMS || r.ElapsedMS > hourMS+60e3 {
			t.Fatalf("stall record = %+v, want cycle 7, no node in flight, elapsed ≈ 1 h", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("armed execution past the wall was never reported")
	}
	w.disarm()
	if w.armed.Load() != 0 {
		t.Fatal("disarm left the watchdog armed")
	}
	w.arm(8, 0)
	if w.armed.Load() == 0 {
		t.Fatal("a stamp of 0 reads as disarmed")
	}
}
