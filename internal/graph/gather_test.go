package graph

import (
	"math"
	"math/rand"
	"testing"

	"djstar/internal/audio"
)

// refGather is FX1's gather as it was before the one-pass form, kept
// verbatim as its oracle: zero the deck mix, then add each SP band.
func refGather(mix audio.Stereo, bands []audio.Stereo, spPerDeck int) {
	mix.Zero()
	gain := 1 / float64(spPerDeck)
	for _, sp := range bands {
		mix.AddFrom(sp, gain)
	}
}

// sameSample compares bits, except that a NaN need only meet a NaN: when
// both operands of an addition are NaNs, which one comes out depends on
// the operand order the compiler picks for the commutative add, in
// either form of the gather.
func sameSample(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// TestGatherBandsMatchesOracle holds the one-pass gather to the
// zero-then-add gather, bit for bit (sameSample), over four bands of
// random packets of lengths 0–130 seeded with ±0, subnormals, ±Inf and
// NaN at random positions, and over bands that are all -0 or all +0,
// where only the leading +0 makes the sum +0.
func TestGatherBandsMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(39))
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, math.Inf(1), math.Inf(-1), math.NaN()}
	random := func() float64 {
		if r.Intn(4) == 0 {
			return specials[r.Intn(len(specials))]
		}
		return r.Float64()*2 - 1
	}
	check := func(n int, sample func() float64) {
		t.Helper()
		bands := make([]audio.Stereo, spPerDeck)
		for k := range bands {
			bands[k] = audio.NewStereo(n)
			for i := 0; i < n; i++ {
				bands[k].L[i], bands[k].R[i] = sample(), sample()
			}
		}
		got, want := audio.NewStereo(n), audio.NewStereo(n)
		for i := 0; i < n; i++ { // stale contents the gather must overwrite
			got.L[i], got.R[i] = random(), random()
		}
		gatherBands(got, (*[spPerDeck]audio.Stereo)(bands), 1/float64(spPerDeck))
		refGather(want, bands, spPerDeck)
		for i := 0; i < n; i++ {
			if !sameSample(got.L[i], want.L[i]) || !sameSample(got.R[i], want.R[i]) {
				t.Fatalf("bands of %d: frame %d = %v/%v, want %v/%v",
					n, i, got.L[i], got.R[i], want.L[i], want.R[i])
			}
		}
	}
	for _, z := range []float64{math.Copysign(0, -1), 0} {
		check(audio.PacketSize, func() float64 { return z })
	}
	for round := 0; round < 10; round++ {
		for n := 0; n <= 130; n++ {
			check(n, random)
		}
	}
}

func BenchmarkGatherBands(b *testing.B) {
	bands := make([]audio.Stereo, 4)
	for k := range bands {
		bands[k] = audio.NewStereo(audio.PacketSize)
		for i := range bands[k].L {
			bands[k].L[i], bands[k].R[i] = math.Sin(float64(i+k)), math.Cos(float64(i*k))
		}
	}
	mix, four := audio.NewStereo(audio.PacketSize), (*[spPerDeck]audio.Stereo)(bands)
	b.Run("one-pass", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gatherBands(mix, four, 0.25)
		}
	})
	b.Run("ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			refGather(mix, bands, 4)
		}
	})
}
