package audio

import (
	"math"
	"math/rand"
	"testing"
)

// refPeak, refStereoPeak and refAddFrom are Buffer.Peak, Stereo.Peak and
// Buffer.AddFrom as they were before the branch-free and bounds-check-free
// forms, kept verbatim as the oracles those forms must match bit for bit
// (Buffer.Peak itself is gone: peak(b, nil) is its one-buffer form).
func refPeak(b Buffer) float64 {
	p := 0.0
	for _, s := range b {
		if a := math.Abs(s); a > p {
			p = a
		}
	}
	return p
}

func refStereoPeak(s Stereo) float64 {
	return math.Max(refPeak(s.L), refPeak(s.R))
}

func refAddFrom(b Buffer, src Buffer, gain float64) {
	n := min(len(b), len(src))
	for i := 0; i < n; i++ {
		b[i] += src[i] * gain
	}
}

// oracleSample draws a sample that is, one time in four, one of the
// values a sign or NaN slip would get wrong: ±0, a subnormal of either
// sign, ±Inf, a NaN of either sign, or the largest finite magnitude.
func oracleSample(r *rand.Rand) float64 {
	if r.Intn(4) != 0 {
		return (r.Float64()*2 - 1) * math.Pow(2, float64(r.Intn(40)-20))
	}
	specials := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2e-308, -1e-310,
		math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN(),
		math.Float64frombits(0x7FF0000000000001), math.MaxFloat64, -math.MaxFloat64,
	}
	return specials[r.Intn(len(specials))]
}

func oracleBuffer(r *rand.Rand, n int) Buffer {
	b := NewBuffer(n)
	for i := range b {
		b[i] = oracleSample(r)
	}
	return b
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestPeakMatchesOracle holds peak and Stereo.Peak to the reference loop,
// bit for bit, over random packets of every length 0–130 seeded with ±0,
// subnormals, ±Inf and NaN at random positions, with L and R of equal and
// unequal length.
func TestPeakMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(39))
	for round := 0; round < 40; round++ {
		for n := 0; n <= 130; n++ {
			b := oracleBuffer(r, n)
			if got, want := peak(b, nil), refPeak(b); !sameBits(got, want) {
				t.Fatalf("peak of %v = %v, want %v", b, got, want)
			}
			for _, m := range []int{n, r.Intn(131)} {
				s := Stereo{L: b, R: oracleBuffer(r, m)}
				if got, want := s.Peak(), refStereoPeak(s); !sameBits(got, want) {
					t.Fatalf("Stereo.Peak of %v / %v = %v, want %v", s.L, s.R, got, want)
				}
			}
		}
	}
	// Specials alone: an all-NaN buffer peaks at +0, as the loop skips NaN.
	for _, b := range []Buffer{{math.NaN()}, {math.NaN(), math.Copysign(0, -1)}, {math.Inf(-1), math.NaN()}} {
		if got, want := (Stereo{L: b}).Peak(), refPeak(b); !sameBits(got, want) {
			t.Fatalf("Peak of %v = %v, want %v", b, got, want)
		}
	}
}

// TestAddFromMatchesOracle holds AddFrom to the reference loop, bit for
// bit, with operands of equal and unequal length.
func TestAddFromMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(39))
	for round := 0; round < 20; round++ {
		for n := 0; n <= 130; n++ {
			m := n
			if round%2 == 1 {
				m = r.Intn(131)
			}
			dst, src, gain := oracleBuffer(r, n), oracleBuffer(r, m), oracleSample(r)
			want := append(Buffer(nil), dst...)
			refAddFrom(want, src, gain)
			dst.AddFrom(src, gain)
			for i := range dst {
				if !sameBits(dst[i], want[i]) {
					t.Fatalf("AddFrom len %d/%d gain %v: sample %d = %v, want %v", n, m, gain, i, dst[i], want[i])
				}
			}
		}
	}
}
