//go:build perf

package engine

import (
	"testing"

	"djstar/internal/sched"
)

func TestRunRealtimePacing(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock pacing is meaningless under the race detector's slowdown")
	}
	e, err := New(fastConfig(sched.NameBusyWait, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rep := e.RunRealtime(40)
	if rep.Metrics.Cycles != 40 {
		t.Fatalf("cycles = %d", rep.Metrics.Cycles)
	}
	// At zero synthetic load the machine should keep up comfortably.
	if rep.Late > 5 {
		t.Fatalf("%d of 40 paced cycles late", rep.Late)
	}
}
