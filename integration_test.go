// Cross-module integration tests: end-to-end flows through the engine,
// schedulers, timecode front end and the schedule simulator.
package djstar

import (
	"math"
	"testing"

	"djstar/internal/audio"
	"djstar/internal/engine"
	"djstar/internal/graph"
	"djstar/internal/rescon"
	"djstar/internal/sched"
)

func integConfig() graph.Config {
	cfg := graph.DefaultConfig()
	cfg.TrackBars = 2
	return cfg
}

// TestEngineAudioIdenticalAcrossStrategies runs the *full engine* (TP +
// GP + Graph + VC) under every strategy and asserts bit-identical master
// output — the strongest whole-system determinism property: scheduling
// must never change what the listener hears.
func TestEngineAudioIdenticalAcrossStrategies(t *testing.T) {
	const cycles = 100

	run := func(strategy string, threads int) []float64 {
		e, err := engine.New(engine.Config{
			Graph:    integConfig(),
			Strategy: strategy,
			Threads:  threads,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		var sums []float64
		for c := 0; c < cycles; c++ {
			e.Cycle(nil)
			out := e.Session().MasterOut()
			s := 0.0
			for i := range out.L {
				s += out.L[i] + 2*out.R[i]
			}
			sums = append(sums, s)
		}
		return sums
	}

	ref := run(sched.NameSequential, 1)
	nonzero := false
	for _, v := range ref {
		if v != 0 {
			nonzero = true
			break
		}
	}
	if !nonzero {
		t.Fatal("reference audio silent")
	}
	for _, strategy := range []string{sched.NameBusyWait, sched.NameSleep, sched.NameWorkSteal} {
		got := run(strategy, 4)
		for c := range ref {
			if got[c] != ref[c] {
				t.Fatalf("%s: cycle %d audio differs (%v vs %v)", strategy, c, got[c], ref[c])
			}
		}
	}
}

// TestDVSScratchChangesAudio exercises the full control path: slowing the
// virtual turntable must slow the deck, audibly changing the output.
func TestDVSScratchChangesAudio(t *testing.T) {
	e, err := engine.New(engine.Config{
		Graph:    integConfig(),
		Strategy: sched.NameBusyWait,
		Threads:  2,
		DVS:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	e.RunCycles(80) // let the decoders lock
	posBefore := e.Session().Decks[0].Position()
	e.RunCycles(100)
	advanceNormal := e.Session().Decks[0].Position() - posBefore

	e.SetTurntableSpeed(0, 0.5)
	e.RunCycles(80) // decoder speed EMA settles
	posBefore = e.Session().Decks[0].Position()
	e.RunCycles(100)
	advanceSlow := e.Session().Decks[0].Position() - posBefore

	if advanceSlow >= advanceNormal*0.8 {
		t.Fatalf("deck did not slow down: %v vs %v frames per 100 cycles",
			advanceSlow, advanceNormal)
	}
}

// TestSimulationBracketsReality: for any valid schedule over measured
// node durations, critical path <= k-core schedule <= sequential sum. How
// close the measured sequential time comes to the simulated work is a
// wall-clock claim: TestMeasuredSequentialNearSimulatedWork (perf tag).
func TestSimulationBracketsReality(t *testing.T) {
	cfg := integConfig()
	durs, plan, err := engine.MeasureNodeDurations(cfg, 100)
	if err != nil {
		t.Fatal(err)
	}
	m, err := rescon.FromPlan(plan, durs)
	if err != nil {
		t.Fatal(err)
	}
	cp := m.EarliestStart().MakespanUS
	four, err := m.ListSchedule(4)
	if err != nil {
		t.Fatal(err)
	}
	one, err := m.ListSchedule(1)
	if err != nil {
		t.Fatal(err)
	}
	if !(cp <= four.MakespanUS+1e-9 && four.MakespanUS <= one.MakespanUS+1e-9) {
		t.Fatalf("bracket violated: cp %v, four %v, seq %v", cp, four.MakespanUS, one.MakespanUS)
	}
	if math.Abs(one.MakespanUS-m.TotalWork()) > 1e-6 {
		t.Fatalf("1-core schedule %v != total work %v", one.MakespanUS, m.TotalWork())
	}
}

// TestStaticExecutorEndToEnd replays an offline schedule on the real
// session and checks the audio matches the sequential reference.
func TestStaticExecutorEndToEnd(t *testing.T) {
	cfg := integConfig()
	durs, _, err := engine.MeasureNodeDurations(cfg, 30)
	if err != nil {
		t.Fatal(err)
	}

	run := func(build func(*graph.Plan) (sched.Scheduler, error)) []float64 {
		session, g, err := graph.BuildDJStar(cfg)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := g.Compile()
		if err != nil {
			t.Fatal(err)
		}
		s, err := build(plan)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var sums []float64
		for c := 0; c < 60; c++ {
			session.Prepare()
			s.Execute()
			total := 0.0
			for _, v := range session.MasterOut().L {
				total += v
			}
			sums = append(sums, total)
		}
		return sums
	}

	ref := run(func(p *graph.Plan) (sched.Scheduler, error) {
		return sched.New(sched.NameSequential, p, sched.Options{})
	})
	got := run(func(p *graph.Plan) (sched.Scheduler, error) {
		model, err := rescon.FromPlan(p, durs)
		if err != nil {
			return nil, err
		}
		schedule, err := model.ListSchedule(3)
		if err != nil {
			return nil, err
		}
		lists, err := sched.FromScheduleOrder(p, schedule.Proc, schedule.Start, 3)
		if err != nil {
			return nil, err
		}
		return sched.NewStatic(p, lists, sched.Options{})
	})
	for c := range ref {
		if got[c] != ref[c] {
			t.Fatalf("static executor audio differs at cycle %d", c)
		}
	}
}

// TestPacketClockConsistency ties the audio constants together: the
// deadline used by the engine must equal the packet period of the audio
// configuration.
func TestPacketClockConsistency(t *testing.T) {
	wantMS := 128.0 / 44100.0 * 1e3
	// DeadlineMS derives from a time.Duration, which truncates to whole
	// nanoseconds.
	if math.Abs(engine.DeadlineMS-wantMS) > 1e-5 {
		t.Fatalf("DeadlineMS = %v, want %v", engine.DeadlineMS, wantMS)
	}
	if audio.PacketSize != 128 || audio.SampleRate != 44100 {
		t.Fatal("standard stream constants changed")
	}
}
