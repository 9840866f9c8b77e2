package dsp

import (
	"math"
	"testing"

	"djstar/internal/synth"
)

// TestRotorTracksSincos holds the rotor to math.Sincos(2π(phase+k·inc)),
// the per-sample form it replaces, over random phases in [0, 1) and steps
// with |inc| < ½. The drift grows with k, so the bound is stated for a
// packet (k < 128) and for eight of them; each is at least 4× the worst
// error measured on amd64 (2⁻⁴³·⁴ and 2⁻⁴⁰·³).
func TestRotorTracksSincos(t *testing.T) {
	bounds := []struct {
		steps int
		tol   float64
	}{{128, 0x1p-41}, {1024, 0x1p-38}}
	rng := synth.NewRand(7)
	incs := []float64{0, 1.0 / 44100, -1.0 / 44100, 0.25, -0.25, 0.4999, -0.4999, 1000.0 / 44100, 1e-9}
	for i := 0; i < 200; i++ {
		incs = append(incs, rng.Float64()-0.5)
	}
	for _, b := range bounds {
		worst := 0.0
		for trial, inc := range incs {
			phase := rng.Float64()
			if trial == 0 {
				phase = 0
			}
			r := NewRotor(phase, inc)
			for k := 0; k < b.steps; k++ {
				s, c := r.Next()
				ws, wc := math.Sincos(2 * math.Pi * (phase + float64(k)*inc))
				e := math.Max(math.Abs(s-ws), math.Abs(c-wc))
				worst = math.Max(worst, e)
				if e > b.tol {
					t.Fatalf("phase %v inc %v: step %d = (%v, %v), want (%v, %v) within %g",
						phase, inc, k, s, c, ws, wc, b.tol)
				}
			}
		}
		t.Logf("k < %d: worst error 2^%.1f", b.steps, math.Log2(worst))
	}
}
