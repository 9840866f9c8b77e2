package timecode

import (
	"math"
	"testing"
)

// refGenerate is Generator.Generate as it was before the carrier pair came
// from one Sincos and the bit lookup lost its per-sample wrap — moved here
// verbatim. Generate must match it bit for bit, samples and needle.
func refGenerate(g *Generator, l, r []float64) {
	inc := CarrierHz / float64(g.rate) * g.speed
	n := float64(g.seq.Len())
	for i := range l {
		cycle := int(math.Floor(g.phase))
		amp := bitLow
		if g.seq.Bit(cycle) == 1 {
			amp = bitHigh
		}
		ang := 2 * math.Pi * g.phase
		l[i] = amp * math.Sin(ang)
		r[i] = amp * math.Cos(ang)
		g.phase += inc
		if g.phase >= n {
			g.phase -= n
		} else if g.phase < 0 {
			g.phase += n
		}
	}
}

func TestOracleGenerate(t *testing.T) {
	seq := NewSequence()
	lens := make([]int, 0, 2400)
	for i := 0; i < 2000; i++ {
		lens = append(lens, 128)
	}
	for i := 0; i < 100; i++ {
		lens = append(lens, 1, 7, 127, 128)
	}
	n := float64(seq.Len())
	cases := []struct {
		speed, start float64
	}{
		{1, 0}, {0.97, 0}, {-1, 0}, {0, 123.456},
		{1, n - 300},   // runs off the end of the sequence and wraps
		{-1, 200},      // runs off the start and wraps
		{-0.5, 1e-13},  // a step to just below 0 wraps to exactly n
		{1.5, n - 0.5}, // starts in the last cycle
		{4e6, 17},      // more than a whole sequence per sample: phase stays above n
		{-4e6, 17},     // and stays below 0
	}
	for _, c := range cases {
		g, ref := NewGenerator(seq, 44100), NewGenerator(seq, 44100)
		g.SetSpeed(c.speed)
		ref.SetSpeed(c.speed)
		g.Seek(c.start)
		ref.Seek(c.start)
		for p, m := range lens {
			l, r := make([]float64, m), make([]float64, m)
			wantL, wantR := make([]float64, m), make([]float64, m)
			g.Generate(l, r)
			refGenerate(ref, wantL, wantR)
			for i := range l {
				if l[i] != wantL[i] || r[i] != wantR[i] {
					t.Fatalf("speed %v from %v: packet %d sample %d = (%v, %v), want (%v, %v)",
						c.speed, c.start, p, i, l[i], r[i], wantL[i], wantR[i])
				}
			}
			if g.phase != ref.phase {
				t.Fatalf("speed %v from %v: packet %d leaves the needle at %v, want %v",
					c.speed, c.start, p, g.phase, ref.phase)
			}
		}
	}
}

// TestSincosMatchesSinAndCos holds math.Sincos to math.Sin and math.Cos
// over the carrier's whole argument range, finer than any packet steps
// through it, and on negative arguments.
func TestSincosMatchesSinAndCos(t *testing.T) {
	limit := 2 * math.Pi * float64(1<<PositionBits)
	for x := -50.0; x < limit; x += 0.0371 {
		s, c := math.Sincos(x)
		if s != math.Sin(x) || c != math.Cos(x) {
			t.Fatalf("Sincos(%v) = (%v, %v), want (%v, %v)", x, s, c, math.Sin(x), math.Cos(x))
		}
	}
}
