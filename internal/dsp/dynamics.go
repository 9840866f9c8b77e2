package dsp

import "math"

// Limiter is a feed-forward peak limiter with exponential attack/release
// gain smoothing, used by the AudioOut1 and RecordBuffer nodes ("Limiter,
// Clip" in Fig. 3) to guarantee the packet never exceeds the threshold by
// more than the attack lag allows.
type Limiter struct {
	// Threshold is the linear ceiling (e.g. 0.98).
	Threshold float64
	attack    float64 // per-sample smoothing coefficient when reducing gain
	release   float64 // per-sample smoothing coefficient when recovering
	gain      float64 // current smoothed gain
}

// NewLimiter returns a limiter with the given linear threshold and
// attack/release time constants in samples.
func NewLimiter(threshold float64, attackSamples, releaseSamples float64, _ int) *Limiter {
	l := &Limiter{Threshold: threshold, gain: 1}
	l.attack = coefForSamples(attackSamples)
	l.release = coefForSamples(releaseSamples)
	return l
}

// coefForSamples converts a time constant in samples to a one-pole
// smoothing coefficient.
func coefForSamples(samples float64) float64 {
	if samples <= 0 {
		return 0
	}
	return math.Exp(-1 / samples)
}

// Process limits buf in place. The smoothed gain relaxes towards 1, not
// towards 0: g-target is a difference of two numbers near 1, so it is 0 or
// at least 2^-53 and its product with a coefficient cannot be subnormal —
// the limiter is the one smoother with nothing to settle.
func (l *Limiter) Process(buf []float64) {
	th := l.Threshold
	g := l.gain
	for i, x := range buf {
		target := 1.0
		if a := math.Abs(x); a*g > th && a > 0 {
			target = th / a
		}
		coef := l.release
		if target < g {
			coef = l.attack
		}
		g = target + (g-target)*coef
		buf[i] = x * g
	}
	l.gain = g
}

// HardClip clamps buf to [-ceiling, ceiling] in place and returns the
// number of clipped samples. This is the final safety stage after the
// limiter.
func HardClip(buf []float64, ceiling float64) int {
	clipped := 0
	for i, x := range buf {
		if x > ceiling {
			buf[i] = ceiling
			clipped++
		} else if x < -ceiling {
			buf[i] = -ceiling
			clipped++
		}
	}
	return clipped
}
