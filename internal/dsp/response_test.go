package dsp

import "math"

// magnitudeAt returns f's magnitude response at frequency freq (Hz) for
// sampling rate hz: |H(e^jw)| = |b0 + b1 z^-1 + b2 z^-2| / |1 + a1 z^-1 + a2 z^-2|.
func magnitudeAt(f *Biquad, freq float64, hz int) float64 {
	w := 2 * math.Pi * freq / float64(hz)
	c1, s1 := math.Cos(w), math.Sin(w)
	c2, s2 := math.Cos(2*w), math.Sin(2*w)
	num := math.Hypot(f.b0+f.b1*c1+f.b2*c2, -f.b1*s1-f.b2*s2)
	den := math.Hypot(1+f.a1*c1+f.a2*c2, -f.a1*s1-f.a2*s2)
	if den == 0 {
		return math.Inf(1)
	}
	return num / den
}

// eqMagnitudeAt is the EQ's combined magnitude response at freq Hz.
func eqMagnitudeAt(eq *ThreeBandEQ, freq float64) float64 {
	return magnitudeAt(eq.low, freq, eq.rate) * magnitudeAt(eq.mid, freq, eq.rate) * magnitudeAt(eq.high, freq, eq.rate)
}

// isStable reports whether f's poles are inside the unit circle (Jury's
// criterion for 1 + a1 z^-1 + a2 z^-2).
func isStable(f *Biquad) bool { return math.Abs(f.a2) < 1 && math.Abs(f.a1) < 1+f.a2 }
