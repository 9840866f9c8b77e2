package dsp

import (
	"fmt"
	"math"
	"math/bits"
)

// FFT computes radix-2 decimation-in-time fast Fourier transforms on
// preallocated complex buffers (separate real/imag slices to avoid
// complex128 boxing in hot loops). The time-stretching phase vocoder and
// the spectrum analyzer node are built on it.
type FFT struct {
	n      int
	logN   int
	revIdx []int     // bit-reversal permutation
	cosTab []float64 // twiddle factors, quarter-wave resolution n/2
	sinTab []float64
}

// NewFFT returns a transform of size n, which must be a power of two >= 2.
func NewFFT(n int) (*FFT, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("dsp: FFT size %d is not a power of two >= 2", n)
	}
	logN := bits.TrailingZeros(uint(n))
	f := &FFT{
		n:      n,
		logN:   logN,
		revIdx: make([]int, n),
		cosTab: make([]float64, n/2),
		sinTab: make([]float64, n/2),
	}
	for i := 0; i < n; i++ {
		f.revIdx[i] = int(bits.Reverse(uint(i)) >> (bits.UintSize - logN))
	}
	for i := 0; i < n/2; i++ {
		ang := -2 * math.Pi * float64(i) / float64(n)
		f.cosTab[i] = math.Cos(ang)
		f.sinTab[i] = math.Sin(ang)
	}
	return f, nil
}

// MustFFT is NewFFT that panics on error; for compile-time-known sizes.
func MustFFT(n int) *FFT {
	f, err := NewFFT(n)
	if err != nil {
		panic(err)
	}
	return f
}

// Transform computes the in-place forward FFT of (re, im), both of which
// must have the transform size n.
func (f *FFT) Transform(re, im []float64) {
	f.transform(re, im, false)
}

// Inverse computes the in-place inverse FFT of (re, im), including the 1/n
// normalization.
func (f *FFT) Inverse(re, im []float64) {
	f.transform(re, im, true)
	inv := 1 / float64(f.n)
	for i := range re {
		re[i] *= inv
		im[i] *= inv
	}
}

func (f *FFT) transform(re, im []float64, inverse bool) {
	n := f.n
	if len(re) != n || len(im) != n {
		panic(fmt.Sprintf("dsp: FFT buffers have length %d/%d, want %d", len(re), len(im), n))
	}
	// Bit-reversal permutation.
	for i, j := range f.revIdx {
		if j > i {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
	// Cooley–Tukey butterflies.
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			k := 0
			for i := start; i < start+half; i++ {
				c := f.cosTab[k]
				s := f.sinTab[k]
				if inverse {
					s = -s
				}
				j := i + half
				tRe := re[j]*c - im[j]*s
				tIm := re[j]*s + im[j]*c
				re[j] = re[i] - tRe
				im[j] = im[i] - tIm
				re[i] += tRe
				im[i] += tIm
				k += step
			}
		}
	}
}

// Magnitudes writes sqrt(re^2+im^2) for the first len(dst) bins into dst.
func Magnitudes(re, im, dst []float64) {
	for i := range dst {
		dst[i] = math.Hypot(re[i], im[i])
	}
}

// WindowKind selects a window function shape.
type WindowKind int

const (
	Rectangular WindowKind = iota
	Hann
	Hamming
	Blackman
)

// MakeWindow fills dst with the window of the given kind.
func MakeWindow(kind WindowKind, dst []float64) {
	n := len(dst)
	if n == 0 {
		return
	}
	denom := float64(n - 1)
	if denom == 0 {
		dst[0] = 1
		return
	}
	for i := range dst {
		x := float64(i) / denom
		switch kind {
		case Hann:
			dst[i] = 0.5 - 0.5*math.Cos(2*math.Pi*x)
		case Hamming:
			dst[i] = 0.54 - 0.46*math.Cos(2*math.Pi*x)
		case Blackman:
			dst[i] = 0.42 - 0.5*math.Cos(2*math.Pi*x) + 0.08*math.Cos(4*math.Pi*x)
		default:
			dst[i] = 1
		}
	}
}
