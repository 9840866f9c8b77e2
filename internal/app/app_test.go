package app

import (
	"math"
	"testing"

	"djstar/internal/audio"
	"djstar/internal/engine"
	"djstar/internal/faults"
	"djstar/internal/graph"
	"djstar/internal/middleware"
	"djstar/internal/sched"
)

func testConfig() Config {
	gc := graph.DefaultConfig()
	gc.TrackBars = 2
	return Config{
		Engine: engine.Config{
			Graph:    gc,
			Strategy: sched.NameBusyWait,
			Threads:  2,
		},
	}
}

func TestAppCyclePublishesPositionAndMeters(t *testing.T) {
	a, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	pos, _ := a.Bus.Subscribe(middleware.TopicDeckPosition, 64)
	meter, _ := a.Bus.Subscribe(middleware.TopicMeterMaster, 64)

	a.RunCycles(64)

	// 64 cycles at the default throttle of 16 -> 4 rounds × 4 decks.
	gotPos := len(pos.Events())
	if gotPos < 8 {
		t.Fatalf("position events = %d, want >= 8", gotPos)
	}
	ev := <-pos.Events()
	dp, ok := ev.Payload.(middleware.DeckPosition)
	if !ok || dp.Deck < 0 || dp.Deck > 3 {
		t.Fatalf("bad position payload %+v", ev.Payload)
	}
	if len(meter.Events()) < 2 {
		t.Fatalf("meter events = %d", len(meter.Events()))
	}
}

func TestAppBeatEventsMatchTempo(t *testing.T) {
	a, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	beats, _ := a.Bus.Subscribe(middleware.TopicBeat, 4096)
	// ~5 seconds of audio.
	cycles := int(5 / audio.StandardPacketPeriod.Seconds())
	a.RunCycles(cycles)

	// Count deck-0 beats: deck A plays at ~126 BPM, so ~10.5 beats in 5 s.
	count := 0
	for {
		select {
		case ev := <-beats.Events():
			if ev.Payload.(middleware.Beat).Deck == 0 {
				count++
			}
			continue
		default:
		}
		break
	}
	want := 126.0 / 60 * 5
	if math.Abs(float64(count)-want) > want/2 {
		t.Fatalf("deck 0 beats in 5 s = %d, want ~%.0f", count, want)
	}
}

func TestAppPerformerDrivesSession(t *testing.T) {
	cfg := testConfig()
	cfg.PerformerSeed = 1234
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	ctrl, _ := a.Bus.Subscribe(middleware.TopicControl, 1024)
	a.RunCycles(2000)
	if a.Mapping.Applied() == 0 {
		t.Fatal("performer applied nothing")
	}
	if len(ctrl.Events()) == 0 {
		t.Fatal("no control events published")
	}
	if a.Mapping.Unknown() != 0 {
		t.Fatalf("unknown controls: %d", a.Mapping.Unknown())
	}
}

func TestAppLibraryAnalysis(t *testing.T) {
	cfg := testConfig()
	cfg.AnalyzeLibrary = true
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if a.Library.Len() != 4 {
		t.Fatalf("library has %d tracks, want 4", a.Library.Len())
	}
	e := a.Library.Get("deck-a")
	if e == nil || e.Analysis == nil {
		t.Fatal("deck-a not analyzed")
	}
	// Ground truth: deck-a is generated at 126 BPM.
	if math.Abs(e.Analysis.BPM-126) > 4 {
		t.Fatalf("deck-a BPM = %v, want ~126", e.Analysis.BPM)
	}
}

func TestAppRejectsBadEngineConfig(t *testing.T) {
	cfg := testConfig()
	cfg.Engine.Strategy = "bogus"
	if _, err := New(cfg); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestAppMetricsAccumulate(t *testing.T) {
	a, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	m := a.RunCycles(50)
	if m.Cycles() != 50 {
		t.Fatalf("cycles = %d", m.Cycles())
	}
	if m.GraphMeanMS() <= 0 {
		t.Fatal("no graph timing")
	}
}

func TestAppPublishesHealthAndFaultEvents(t *testing.T) {
	cfg := testConfig()
	// Inject three consecutive panics into an FX node: the facade must
	// surface each contained fault and the quarantine in bus events.
	cfg.Engine.Graph.Faults = faults.New(1, faults.MustParse("panic:FXA2@5x3")...)
	cfg.HealthEvery = 16
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	health, _ := a.Bus.Subscribe(middleware.TopicHealth, 64)
	fault, _ := a.Bus.Subscribe(middleware.TopicFault, 64)
	a.RunCycles(64)

	if got := len(fault.Events()); got != 3 {
		t.Fatalf("fault events = %d, want 3", got)
	}
	sawQuarantine := false
	for i := 0; i < 3; i++ {
		ev := (<-fault.Events()).Payload.(middleware.FaultEvent)
		if ev.Node != "FXA2" || ev.Err == "" {
			t.Fatalf("bad fault event %+v", ev)
		}
		sawQuarantine = sawQuarantine || ev.Quarantined
	}
	if !sawQuarantine {
		t.Fatal("no fault event reported the quarantine trip")
	}

	if len(health.Events()) == 0 {
		t.Fatal("no health events published")
	}
	var last middleware.HealthReport
	for len(health.Events()) > 0 {
		last = (<-health.Events()).Payload.(middleware.HealthReport)
	}
	if last.FaultsRecovered != 3 {
		t.Fatalf("health FaultsRecovered = %d, want 3", last.FaultsRecovered)
	}
	if len(last.Quarantined) != 1 || last.Quarantined[0] != "FXA2" {
		t.Fatalf("health Quarantined = %v, want [FXA2]", last.Quarantined)
	}
	if last.Level != "normal" {
		t.Fatalf("health Level = %q, want normal (no governor)", last.Level)
	}
}

// TestAppPublishesEveryDeadlineMiss: misses are published from the
// engine's cycle record, so a miss that sets no new run maximum, and a
// miss with no Metrics sink attached, both reach the bus.
func TestAppPublishesEveryDeadlineMiss(t *testing.T) {
	cfg := testConfig()
	// Spin targets are time-based (RunSince), so no calibration is
	// needed: TP alone is 190 µs × Scale × load factor.
	cfg.Engine.Graph.Scale = 0.01
	cfg.Engine.Graph.Calibration = graph.Calibration{NanosPerUnit: 1e9}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	misses, _ := a.Bus.Subscribe(middleware.TopicDeadlineMiss, 16)

	a.Engine.SetLoadFactor(2400) // TP ≥ 4.56 ms
	a.Cycle(nil)
	a.Engine.SetLoadFactor(1600) // TP ≥ 3.04 ms: a miss, but a shorter one
	a.Cycle(nil)

	if got := len(misses.Events()); got != 2 {
		t.Fatalf("deadline-miss events = %d, want 2", got)
	}
	for i := int64(1); i <= 2; i++ {
		ev := (<-misses.Events()).Payload.(middleware.DeadlineMiss)
		if ev.Cycle != i || ev.DurationMS <= engine.DeadlineMS || ev.DeadlineMS != engine.DeadlineMS {
			t.Fatalf("miss event %d = %+v", i, ev)
		}
	}
}
