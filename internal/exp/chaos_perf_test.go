//go:build perf

package exp

import (
	"io"
	"testing"

	"djstar/internal/engine"
)

// TestGovernor asserts the degradation demo: under a synthetic overload
// the governed engine sheds into a degraded level, misses the derived
// deadline less often than the ungoverned one, and returns to normal
// once the overload is removed.
func TestGovernor(t *testing.T) {
	res, err := Governor(Quick(io.Discard))
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxLevel <= engine.GovNormal {
		t.Errorf("max level = %v, want a degraded level under overload", res.MaxLevel)
	}
	if res.FinalLevel != engine.GovNormal {
		t.Errorf("final level = %v, want normal after recovery", res.FinalLevel)
	}
	if res.UngovernedMissRate == 0 {
		t.Fatal("ungoverned run missed nothing — the demo deadline does not bind")
	}
	if res.GovernedMissRate >= res.UngovernedMissRate {
		t.Errorf("governed miss rate %.3f >= ungoverned %.3f — shedding bought nothing",
			res.GovernedMissRate, res.UngovernedMissRate)
	}
}
