package dsp

import "math"

// EqualPowerPan returns the left/right gains for pan position p in [-1, 1]
// (-1 hard left, 0 center, +1 hard right) using the constant-power law, so
// perceived loudness stays flat across the sweep.
func EqualPowerPan(p float64) (l, r float64) {
	if p < -1 {
		p = -1
	}
	if p > 1 {
		p = 1
	}
	ang := (p + 1) * math.Pi / 4 // 0..pi/2
	return math.Cos(ang), math.Sin(ang)
}

// CrossfadeGains returns the gains applied to the A and B sides of the DJ
// crossfader for position x in [0, 1] (0 full A, 1 full B) with an
// equal-power curve.
func CrossfadeGains(x float64) (a, b float64) {
	if x < 0 {
		x = 0
	}
	if x > 1 {
		x = 1
	}
	ang := x * math.Pi / 2
	return math.Cos(ang), math.Sin(ang)
}

// FaderCurve maps a linear fader position in [0, 1] to a gain with the
// typical audio taper (x^2), giving finer control near the bottom.
func FaderCurve(x float64) float64 {
	if x < 0 {
		x = 0
	}
	if x > 1 {
		x = 1
	}
	return x * x
}

// SmoothedGain ramps gain changes over a packet to avoid zipper noise.
// Apply writes buf[i] *= g(i) where g moves linearly from the previous gain
// to the target, then remembers the target.
type SmoothedGain struct {
	current float64
	first   bool
}

// NewSmoothedGain returns a smoother starting at the given gain.
func NewSmoothedGain(initial float64) *SmoothedGain {
	return &SmoothedGain{current: initial, first: true}
}

// Apply scales buf in place, ramping from the previous gain to target.
func (s *SmoothedGain) Apply(buf []float64, target float64) {
	if s.first {
		s.current = target
		s.first = false
	}
	n := len(buf)
	if n == 0 {
		s.current = target
		return
	}
	step := (target - s.current) / float64(n)
	g := s.current
	for i := range buf {
		g += step
		buf[i] *= g
	}
	s.current = target
}
