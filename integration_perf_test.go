//go:build perf

package djstar

import (
	"sort"
	"testing"

	"djstar/internal/audio"
	"djstar/internal/engine"
	"djstar/internal/rescon"
	"djstar/internal/sched"
)

// TestRealtimeDeadlinesAcrossStrategies paces the engine against the
// simulated sound-card clock and requires the vast majority of packets to
// be delivered on time at zero synthetic load.
func TestRealtimeDeadlinesAcrossStrategies(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock pacing is meaningless under the race detector's slowdown")
	}
	for _, strategy := range []string{sched.NameSequential, sched.NameBusyWait} {
		threads := 2
		if strategy == sched.NameSequential {
			threads = 1
		}
		e, err := engine.New(engine.Config{
			Graph:    integConfig(),
			Strategy: strategy,
			Threads:  threads,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep := e.RunRealtime(100, audio.StandardPacketPeriod, nil)
		e.Close()
		if rep.Late > 20 {
			t.Fatalf("%s: %d of 100 paced packets late (max lateness %.2f ms)",
				strategy, rep.Late, rep.MaxLatenessMS)
		}
	}
}

// TestMeasuredSequentialNearSimulatedWork: the measured sequential graph
// time is within 3x of the simulator's total work, both derived from the
// same measured node durations (timer overhead and cache effects
// allowed). TestSimulationBracketsReality keeps the schedule bracket.
func TestMeasuredSequentialNearSimulatedWork(t *testing.T) {
	cfg := integConfig()
	durs, plan, err := engine.MeasureNodeDurations(cfg, 100)
	if err != nil {
		t.Fatal(err)
	}
	m, err := rescon.FromPlan(plan, durs)
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(engine.Config{Graph: cfg, Strategy: sched.NameSequential, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	measuredUS := e.RunCycles(100).GraphMeanMS() * 1e3
	if measuredUS < m.TotalWork()/3 || measuredUS > m.TotalWork()*3 {
		t.Fatalf("measured sequential %v µs vs simulated work %v µs", measuredUS, m.TotalWork())
	}
}

// TestPausedDecksCostNoMoreThanPlaying holds the graph stage with three
// decks paused to the cost of all four playing: the median over 2000
// cycles each, interleaved in blocks so a noisy neighbour hits both alike.
// Kernel cost is independent of signal level (DESIGN.md §21), so the ratio
// is about 1; before, subnormal filter states made it about 15, which is
// why a bound of 1.5 is safe on any box.
func TestPausedDecksCostNoMoreThanPlaying(t *testing.T) {
	if raceEnabled {
		t.Skip("a wall-clock ratio is meaningless under the race detector's slowdown")
	}
	playing, playingUS := pausedDecksEngine(t, 0)
	paused, pausedUS := pausedDecksEngine(t, 3)
	var a, b []float64
	for block := 0; block < 20; block++ {
		for i := 0; i < 100; i++ {
			playing.Cycle(nil)
			a = append(a, playingUS())
		}
		for i := 0; i < 100; i++ {
			paused.Cycle(nil)
			b = append(b, pausedUS())
		}
	}
	sort.Float64s(a)
	sort.Float64s(b)
	p50, q50 := a[len(a)/2], b[len(b)/2]
	t.Logf("graph stage p50: 4 playing %.1f us, 3 paused %.1f us (ratio %.2f)", p50, q50, q50/p50)
	if q50 > 1.5*p50 {
		t.Fatalf("graph stage with 3 decks paused costs %.1f us, %.2fx the %.1f us of 4 playing; want <= 1.5x", q50, q50/p50, p50)
	}
}
