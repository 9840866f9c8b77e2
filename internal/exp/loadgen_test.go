package exp

import (
	"testing"

	"djstar/internal/engine"
)

// TestCycleSeqCountsGapsAndDoubles: R8's drain check counts a skipped
// cycle number as a gap and a repeated one as a double.
func TestCycleSeqCountsGapsAndDoubles(t *testing.T) {
	var c cycleSeq
	for _, n := range []uint64{1, 2, 4, 4, 5} {
		c.observe(engine.CycleInfo{Cycle: n})
	}
	if g, d := c.gaps.Load(), c.doubles.Load(); g != 1 || d != 1 {
		t.Fatalf("1,2,4,4,5: %d gaps, %d doubles, want 1 and 1", g, d)
	}

	var clean cycleSeq
	for n := uint64(1); n <= 100; n++ {
		clean.observe(engine.CycleInfo{Cycle: n})
	}
	if g, d := clean.gaps.Load(), clean.doubles.Load(); g != 0 || d != 0 {
		t.Fatalf("1..100: %d gaps, %d doubles, want none", g, d)
	}
}
