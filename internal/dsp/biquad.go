// Package dsp implements the digital signal processing primitives the
// DJ Star audio graph nodes are built from: biquad filters, a three-band
// equalizer, FFT, window functions, delay lines, dynamics processing
// (limiter, soft clip), gain/pan laws and a resampler.
//
// Everything here is allocation-free per sample/packet once constructed;
// graph nodes call these kernels inside the 2.9 ms audio processing cycle.
package dsp

import "math"

// FilterKind selects the response of a Biquad.
type FilterKind int

const (
	LowPass FilterKind = iota
	HighPass
	BandPass
	Notch
	AllPass
	LowShelf
	HighShelf
	Peaking
)

// String returns the conventional name of the filter kind.
func (k FilterKind) String() string {
	switch k {
	case LowPass:
		return "lowpass"
	case HighPass:
		return "highpass"
	case BandPass:
		return "bandpass"
	case Notch:
		return "notch"
	case AllPass:
		return "allpass"
	case LowShelf:
		return "lowshelf"
	case HighShelf:
		return "highshelf"
	case Peaking:
		return "peaking"
	default:
		return "unknown"
	}
}

// Biquad is a second-order IIR filter in transposed direct form II, with
// coefficients from the Audio EQ Cookbook (R. Bristow-Johnson). It is the
// workhorse behind the channel filters, EQ bands and the SP "Fltr" nodes.
type Biquad struct {
	b0, b1, b2, a1, a2 float64 // normalized coefficients (a0 == 1)
	z1, z2             float64 // state
}

// NewBiquad returns a filter of the given kind at center/corner frequency
// freq (Hz) for sampling rate hz, with quality factor q and shelf/peak gain
// gainDB (ignored for non-shelving, non-peaking kinds).
func NewBiquad(kind FilterKind, freq, q, gainDB float64, hz int) *Biquad {
	var f Biquad
	f.Configure(kind, freq, q, gainDB, hz)
	return &f
}

// Configure retunes the filter in place, preserving its state so parameter
// sweeps do not click. Frequencies are clamped to (0, hz/2).
func (f *Biquad) Configure(kind FilterKind, freq, q, gainDB float64, hz int) {
	nyq := float64(hz) / 2
	if freq <= 0 {
		freq = 1
	}
	if freq >= nyq {
		freq = nyq * 0.999
	}
	if q <= 0 {
		q = 0.7071
	}

	w0 := 2 * math.Pi * freq / float64(hz)
	cosW, sinW := math.Cos(w0), math.Sin(w0)
	alpha := sinW / (2 * q)
	a := math.Pow(10, gainDB/40)

	var b0, b1, b2, a0, a1, a2 float64
	switch kind {
	case LowPass:
		b0 = (1 - cosW) / 2
		b1 = 1 - cosW
		b2 = (1 - cosW) / 2
		a0 = 1 + alpha
		a1 = -2 * cosW
		a2 = 1 - alpha
	case HighPass:
		b0 = (1 + cosW) / 2
		b1 = -(1 + cosW)
		b2 = (1 + cosW) / 2
		a0 = 1 + alpha
		a1 = -2 * cosW
		a2 = 1 - alpha
	case BandPass: // constant 0 dB peak gain
		b0 = alpha
		b1 = 0
		b2 = -alpha
		a0 = 1 + alpha
		a1 = -2 * cosW
		a2 = 1 - alpha
	case Notch:
		b0 = 1
		b1 = -2 * cosW
		b2 = 1
		a0 = 1 + alpha
		a1 = -2 * cosW
		a2 = 1 - alpha
	case AllPass:
		b0 = 1 - alpha
		b1 = -2 * cosW
		b2 = 1 + alpha
		a0 = 1 + alpha
		a1 = -2 * cosW
		a2 = 1 - alpha
	case LowShelf:
		sq := 2 * math.Sqrt(a) * alpha
		b0 = a * ((a + 1) - (a-1)*cosW + sq)
		b1 = 2 * a * ((a - 1) - (a+1)*cosW)
		b2 = a * ((a + 1) - (a-1)*cosW - sq)
		a0 = (a + 1) + (a-1)*cosW + sq
		a1 = -2 * ((a - 1) + (a+1)*cosW)
		a2 = (a + 1) + (a-1)*cosW - sq
	case HighShelf:
		sq := 2 * math.Sqrt(a) * alpha
		b0 = a * ((a + 1) + (a-1)*cosW + sq)
		b1 = -2 * a * ((a - 1) + (a+1)*cosW)
		b2 = a * ((a + 1) + (a-1)*cosW - sq)
		a0 = (a + 1) - (a-1)*cosW + sq
		a1 = 2 * ((a - 1) - (a+1)*cosW)
		a2 = (a + 1) - (a-1)*cosW - sq
	case Peaking:
		b0 = 1 + alpha*a
		b1 = -2 * cosW
		b2 = 1 - alpha*a
		a0 = 1 + alpha/a
		a1 = -2 * cosW
		a2 = 1 - alpha/a
	default:
		// Identity.
		b0, a0 = 1, 1
	}

	inv := 1 / a0
	f.b0 = b0 * inv
	f.b1 = b1 * inv
	f.b2 = b2 * inv
	f.a1 = a1 * inv
	f.a2 = a2 * inv
}

// SetCoeffsFrom copies src's coefficients into f and leaves f's state
// untouched. The two channels of a stereo filter share one response, so
// the second channel copies what Configure computed for the first instead
// of evaluating the same Sin/Cos/Pow again.
func (f *Biquad) SetCoeffsFrom(src *Biquad) {
	f.b0, f.b1, f.b2, f.a1, f.a2 = src.b0, src.b1, src.b2, src.a1, src.a2
}

// Reset clears the filter state (the coefficients are kept).
func (f *Biquad) Reset() { f.z1, f.z2 = 0, 0 }

// Settle ends a block of ProcessSample calls: a state that has decayed
// below the floor becomes exactly 0 (see the package-level Settle). The
// block kernels — Process, ProcessPair, the EQ cascades — do this
// themselves on the way out.
func (f *Biquad) Settle() { f.z1, f.z2 = Settle(f.z1), Settle(f.z2) }

// ProcessSample filters one sample. A caller that runs it over a packet
// calls Settle when the packet ends.
func (f *Biquad) ProcessSample(x float64) float64 {
	y := f.b0*x + f.z1
	f.z1 = f.b1*x - f.a1*y + f.z2
	f.z2 = f.b2*x - f.a2*y
	return y
}

// Process filters buf in place.
func (f *Biquad) Process(buf []float64) {
	b0, b1, b2, a1, a2 := f.b0, f.b1, f.b2, f.a1, f.a2
	z1, z2 := f.z1, f.z2
	for i, x := range buf {
		y := b0*x + z1
		z1 = b1*x - a1*y + z2
		z2 = b2*x - a2*y
		buf[i] = y
	}
	f.z1, f.z2 = Settle(z1), Settle(z2)
}
