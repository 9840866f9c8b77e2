package graph

import (
	"testing"
	"time"
)

func TestRunSinceZeroTargetReturnsImmediately(t *testing.T) {
	l := NewLoad(Cost{}, Calibration{NanosPerUnit: 10}, 1)
	if l.Enabled() {
		t.Fatal("zero-cost load enabled")
	}
	start := time.Now()
	l.RunSince(NowNanos(), true)
	if time.Since(start) > time.Millisecond {
		t.Fatal("zero-target RunSince did not return promptly")
	}
}

func TestNowNanosMonotone(t *testing.T) {
	a := NowNanos()
	b := NowNanos()
	if b < a {
		t.Fatalf("clock went backwards: %d -> %d", a, b)
	}
}
