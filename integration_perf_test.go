//go:build perf

package djstar

import (
	"testing"

	"djstar/internal/engine"
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
		rep := e.RunRealtime(100)
		e.Close()
		if rep.Late > 20 {
			t.Fatalf("%s: %d of 100 paced packets late (max lateness %.2f ms)",
				strategy, rep.Late, rep.MaxLatenessMS)
		}
	}
}
