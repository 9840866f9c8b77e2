package dsp

import "math"

// CatmullRom evaluates the Catmull–Rom spline through four consecutive
// samples at fraction t in [0, 1) between p1 and p2. It is the one
// interpolation kernel behind CubicResample and the decks' varispeed read;
// each caller decides what the taps beyond its source's ends are.
func CatmullRom(p0, p1, p2, p3, t float64) float64 {
	a := -0.5*p0 + 1.5*p1 - 1.5*p2 + 0.5*p3
	b := p0 - 2.5*p1 + 2*p2 - 0.5*p3
	c := -0.5*p0 + 0.5*p2
	return ((a*t+b)*t+c)*t + p1
}

// CubicResample reads len(dst) samples from src starting at fractional
// position pos with the given playback rate (1.0 = unity), writing 4-point
// Catmull–Rom interpolated values into dst, and returns the new position.
// Cubic rather than linear interpolation gives noticeably less aliasing
// for vinyl-style pitch bends. Taps before src read as 0 and taps past its
// end as the last sample; positions at or past the end produce 0.
func CubicResample(dst, src []float64, pos, rate float64) float64 {
	n := len(src)
	at := func(i int) float64 {
		if i < 0 {
			return 0
		}
		if i >= n {
			if n == 0 {
				return 0
			}
			return src[n-1]
		}
		return src[i]
	}
	for i := range dst {
		// Interior: all four taps lie inside src, so no edge rule applies;
		// pos >= 1 there, so the conversion truncates to Floor(pos).
		if j := int(pos) - 1; j >= 0 && j+3 < n {
			dst[i] = CatmullRom(src[j], src[j+1], src[j+2], src[j+3], pos-float64(j+1))
			pos += rate
			continue
		}
		idx := int(math.Floor(pos))
		if idx >= n {
			dst[i] = 0
			pos += rate
			continue
		}
		dst[i] = CatmullRom(at(idx-1), at(idx), at(idx+1), at(idx+2), pos-float64(idx))
		pos += rate
	}
	return pos
}
