//go:build perf

package graph

import (
	"testing"
	"time"
)

// TestRunSinceTopsUpToTarget times load top-ups against wall-clock
// bounds, so it runs in the perf job, not tier-1.
func TestRunSinceTopsUpToTarget(t *testing.T) {
	cal := Calibrate()
	l := NewLoad(Cost{BaseUS: 300, DataUS: 300}, cal, 1)
	if !l.Enabled() {
		t.Fatal("load with targets not enabled")
	}

	measure := func(active bool, burnUS float64) time.Duration {
		start := time.Now()
		startNs := NowNanos()
		// Simulate the "real kernel" burning some time first.
		Spin(cal.UnitsForMicros(burnUS))
		l.RunSince(startNs, active)
		return time.Since(start)
	}

	// Kernel cheaper than target: total ≈ target.
	got := measure(false, 20)
	if got < 250*time.Microsecond || got > 3*time.Millisecond {
		t.Fatalf("top-up to 300 µs took %v", got)
	}
	// Active adds the data part.
	gotActive := measure(true, 20)
	if gotActive < got {
		t.Fatalf("active %v not above idle %v", gotActive, got)
	}
	// Kernel more expensive than target: no extra spin beyond the kernel.
	expensive := measure(false, 600)
	if expensive > 4*time.Millisecond {
		t.Fatalf("RunSince added work beyond an already-late kernel: %v", expensive)
	}
}
