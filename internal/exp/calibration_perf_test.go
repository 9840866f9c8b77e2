//go:build perf

package exp

import (
	"io"
	"testing"
)

// The wall-clock halves of the node cost audit and the APC profile: how
// close measured times come to their targets. The bounds are generous
// for a noisy shared host, but slowing every kernel down (the race
// detector does, to a mean cost deviation near 200 %) breaks them.

// TestNodeCostsCalibration: top-up loads keep measured node costs near
// their targets.
func TestNodeCostsCalibration(t *testing.T) {
	o := Quick(io.Discard)
	o.Cycles = 200
	o.Scale = 1.0
	res, err := NodeCosts(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanAbsErrPct > 60 {
		t.Errorf("mean deviation %.1f%%, calibration badly off", res.MeanAbsErrPct)
	}
}

// TestProfileSharesCalibration follows the paper's §VI decomposition:
// TP+GP+VC ≈ 0.8 ms with the sequential graph at ~1.1-1.3 ms, i.e.
// graph ≈ 60 % of the APC, TP ≈ 10 %, GP ≈ 20 %, VC ≈ 8 %. (The §III-B
// percentages — 38 % graph, 16 % timecode — are inconsistent with §VI's
// own numbers; see EXPERIMENTS.md E9.)
func TestProfileSharesCalibration(t *testing.T) {
	o := Quick(io.Discard)
	o.Cycles = 150
	o.Scale = 1.0
	res, err := Profile(o)
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		comp   string
		lo, hi float64
	}{
		{"tp", 6, 16},
		{"gp", 13, 30},
		{"graph", 48, 72},
		{"vc", 4, 14},
	}
	for _, c := range checks {
		got := res.Share(c.comp)
		if got < c.lo || got > c.hi {
			t.Errorf("%s share %.1f%%, want in [%v, %v]", c.comp, got, c.lo, c.hi)
		}
	}
}
