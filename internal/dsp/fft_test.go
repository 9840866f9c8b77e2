package dsp

import (
	"math"
	"testing"
	"testing/quick"

	"djstar/internal/synth"
)

func TestNewFFTRejectsBadSizes(t *testing.T) {
	for _, n := range []int{0, 1, 3, 6, 100} {
		if _, err := NewFFT(n); err == nil {
			t.Fatalf("NewFFT(%d) succeeded, want error", n)
		}
	}
	for _, n := range []int{2, 4, 64, 1024} {
		if _, err := NewFFT(n); err != nil {
			t.Fatalf("NewFFT(%d) failed: %v", n, err)
		}
	}
}

func TestMustFFTPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustFFT(3) did not panic")
		}
	}()
	MustFFT(3)
}

func TestFFTSineBinPeak(t *testing.T) {
	const n = 1024
	f := MustFFT(n)
	// Bin-aligned sine at bin 37.
	re := make([]float64, n)
	im := make([]float64, n)
	for i := range re {
		re[i] = math.Sin(2 * math.Pi * 37 * float64(i) / n)
	}
	f.Transform(re, im)
	mags := make([]float64, n/2)
	Magnitudes(re, im, mags)
	best := 0
	for i, m := range mags {
		if m > mags[best] {
			best = i
		}
	}
	if best != 37 {
		t.Fatalf("peak bin = %d, want 37", best)
	}
	// Peak magnitude of a unit sine is n/2.
	if math.Abs(mags[37]-n/2) > 1e-6 {
		t.Fatalf("peak magnitude = %v, want %v", mags[37], n/2)
	}
}

// TestFFTMatchesDFTProperty checks the forward transform of random
// complex input against the O(n²) DFT, X[k] = Σ x[t]·e^(−2πikt/n).
func TestFFTMatchesDFTProperty(t *testing.T) {
	const n = 64
	f := MustFFT(n)
	check := func(seed uint64) bool {
		srcRe, srcIm := synth.WhiteNoise(n, 1, seed), synth.WhiteNoise(n, 1, seed+1)
		re := append([]float64(nil), srcRe...)
		im := append([]float64(nil), srcIm...)
		f.Transform(re, im)
		for k := 0; k < n; k++ {
			var wantRe, wantIm float64
			for i := 0; i < n; i++ {
				ang := -2 * math.Pi * float64(k*i%n) / n
				c, s := math.Cos(ang), math.Sin(ang)
				wantRe += srcRe[i]*c - srcIm[i]*s
				wantIm += srcRe[i]*s + srcIm[i]*c
			}
			if math.Abs(re[k]-wantRe) > 1e-9 || math.Abs(im[k]-wantIm) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTLinearity(t *testing.T) {
	const n = 128
	f := MustFFT(n)
	a := synth.WhiteNoise(n, 1, 1)
	b := synth.WhiteNoise(n, 1, 2)

	transform := func(x []float64) ([]float64, []float64) {
		re := make([]float64, n)
		im := make([]float64, n)
		copy(re, x)
		f.Transform(re, im)
		return re, im
	}
	sum := make([]float64, n)
	for i := range sum {
		sum[i] = 2*a[i] + 3*b[i]
	}
	aRe, aIm := transform(a)
	bRe, bIm := transform(b)
	sRe, sIm := transform(sum)
	for i := 0; i < n; i++ {
		if math.Abs(sRe[i]-(2*aRe[i]+3*bRe[i])) > 1e-8 ||
			math.Abs(sIm[i]-(2*aIm[i]+3*bIm[i])) > 1e-8 {
			t.Fatalf("linearity violated at bin %d", i)
		}
	}
}

func TestFFTParseval(t *testing.T) {
	const n = 512
	f := MustFFT(n)
	x := synth.WhiteNoise(n, 1, 77)
	re := make([]float64, n)
	im := make([]float64, n)
	copy(re, x)
	timeE := 0.0
	for _, s := range x {
		timeE += s * s
	}
	f.Transform(re, im)
	freqE := 0.0
	for i := 0; i < n; i++ {
		freqE += re[i]*re[i] + im[i]*im[i]
	}
	freqE /= n
	if math.Abs(timeE-freqE) > 1e-6*timeE {
		t.Fatalf("Parseval violated: time %v vs freq %v", timeE, freqE)
	}
}

func TestFFTWrongLengthPanics(t *testing.T) {
	f := MustFFT(64)
	defer func() {
		if recover() == nil {
			t.Fatal("Transform with wrong buffer length did not panic")
		}
	}()
	f.Transform(make([]float64, 32), make([]float64, 64))
}

func TestWindows(t *testing.T) {
	for _, kind := range []WindowKind{Rectangular, Hann, Hamming, Blackman} {
		w := make([]float64, 128)
		MakeWindow(kind, w)
		for i, v := range w {
			if v < -1e-12 || v > 1+1e-12 {
				t.Fatalf("window %d sample %d out of range: %v", kind, i, v)
			}
		}
		// Symmetry.
		for i := 0; i < len(w)/2; i++ {
			if math.Abs(w[i]-w[len(w)-1-i]) > 1e-12 {
				t.Fatalf("window %d asymmetric at %d", kind, i)
			}
		}
	}
	// Hann endpoints are 0, midpoint 1.
	w := make([]float64, 129)
	MakeWindow(Hann, w)
	if w[0] > 1e-12 || w[128] > 1e-12 || math.Abs(w[64]-1) > 1e-12 {
		t.Fatalf("Hann endpoints/mid wrong: %v %v %v", w[0], w[128], w[64])
	}
	// Degenerate sizes do not panic.
	MakeWindow(Hann, nil)
	one := make([]float64, 1)
	MakeWindow(Hann, one)
	if one[0] != 1 {
		t.Fatalf("size-1 window = %v, want 1", one[0])
	}
}

func TestFFTNoAllocSteadyState(t *testing.T) {
	f := MustFFT(256)
	re := make([]float64, 256)
	im := make([]float64, 256)
	allocs := testing.AllocsPerRun(50, func() {
		f.Transform(re, im)
	})
	if allocs != 0 {
		t.Fatalf("FFT allocates %v per run", allocs)
	}
}

func TestFFTSizeGetter(t *testing.T) {
	if MustFFT(128).n != 128 {
		t.Fatal("Size wrong")
	}
}
