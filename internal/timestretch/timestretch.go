// Package timestretch implements tempo manipulation without pitch change.
//
// In DJ Star the "audio stream preprocessing (time stretching, phase
// alignment, buffer overhead)" accounts for 33 % of APC run time (paper
// §III-B); the authors deliberately leave it sequential because good
// parallel versions of the underlying algorithms exist. This package
// implements the two standard algorithms — a phase vocoder (FFT-based,
// high quality) and WSOLA (time-domain, cheap).
//
// The engine does not use it: its GP stage reads deck packets by
// vinyl-style resampling and, with key lock on, deck.PitchShifter. The
// only importer is the benchmark's timestretch.ns_per_packet probe row
// (bench/layers.go), and the package is kept only as long as that row
// exists.
package timestretch

import (
	"fmt"
	"math"

	"djstar/internal/dsp"
)

// Stretcher is implemented by both algorithms. A Stretcher is a pull-style
// stream processor: Process consumes from its input via the read callback
// and fills out with exactly len(out) stretched samples.
type Stretcher interface {
	// Name identifies the algorithm ("pvoc" or "wsola").
	Name() string
	// Ratio returns the current stretch ratio (output/input duration;
	// 2.0 plays at half speed, 0.5 at double speed).
	Ratio() float64
	// SetRatio changes the stretch ratio; values are clamped to
	// [MinRatio, MaxRatio].
	SetRatio(r float64)
	// Reset clears internal history.
	Reset()
}

// Ratio limits. DJ pitch faders are typically ±8..±50 %; we allow a broad
// 4x range either way.
const (
	MinRatio = 0.25
	MaxRatio = 4.0
)

func clampRatio(r float64) float64 {
	if r < MinRatio {
		return MinRatio
	}
	if r > MaxRatio {
		return MaxRatio
	}
	return r
}

// PhaseVocoder is an STFT-based time stretcher with phase propagation.
// Frame size and hops are fixed at construction; the analysis hop is
// derived from the synthesis hop and the ratio.
type PhaseVocoder struct {
	ratio   float64
	frame   int
	synHop  int
	fft     *dsp.FFT
	window  []float64
	winGain float64 // overlap-add normalization
}

// NewPhaseVocoder returns a vocoder with the given FFT frame size (power of
// two, e.g. 1024) and stretch ratio.
func NewPhaseVocoder(frame int, ratio float64) (*PhaseVocoder, error) {
	if frame < 64 || frame&(frame-1) != 0 {
		return nil, fmt.Errorf("timestretch: frame %d must be a power of two >= 64", frame)
	}
	fft, err := dsp.NewFFT(frame)
	if err != nil {
		return nil, err
	}
	pv := &PhaseVocoder{
		ratio:  clampRatio(ratio),
		frame:  frame,
		synHop: frame / 4,
		fft:    fft,
		window: make([]float64, frame),
	}
	dsp.MakeWindow(dsp.Hann, pv.window)
	// Squared-window overlap-add normalization: for a Hann window at 75 %
	// overlap this evaluates to 1.5.
	sum := 0.0
	for _, w := range pv.window {
		sum += w * w
	}
	pv.winGain = sum / float64(pv.synHop)
	return pv, nil
}

// Name implements Stretcher.
func (pv *PhaseVocoder) Name() string { return "pvoc" }

// Ratio implements Stretcher.
func (pv *PhaseVocoder) Ratio() float64 { return pv.ratio }

// SetRatio implements Stretcher.
func (pv *PhaseVocoder) SetRatio(r float64) { pv.ratio = clampRatio(r) }

// Reset implements Stretcher. The offline Stretch entry point keeps its
// phase state in locals, so Reset has nothing to clear; it exists to
// satisfy the Stretcher contract symmetrically with WSOLA.
func (pv *PhaseVocoder) Reset() {}

// Stretch processes the whole src clip and returns the stretched result of
// approximately len(src)*ratio samples. This is the offline entry point
// used by track preparation; the engine's per-packet preprocessing uses
// WSOLA (cheaper) via StretchInto.
func (pv *PhaseVocoder) Stretch(src []float64) []float64 {
	frame := pv.frame
	anaHop := float64(pv.synHop) / pv.ratio
	outLen := int(float64(len(src)) * pv.ratio)
	out := make([]float64, outLen+2*frame)

	winRe := make([]float64, frame)
	winIm := make([]float64, frame)
	prevPha := make([]float64, frame/2+1)
	synPha := make([]float64, frame/2+1)
	first := true

	outPos := 0
	for pos := 0.0; int(pos)+frame <= len(src); pos += anaHop {
		start := int(pos)
		for i := 0; i < frame; i++ {
			winRe[i] = src[start+i] * pv.window[i]
			winIm[i] = 0
		}
		pv.fft.Transform(winRe, winIm)

		// Phase propagation over the positive-frequency bins.
		for k := 0; k <= frame/2; k++ {
			mag := math.Hypot(winRe[k], winIm[k])
			pha := math.Atan2(winIm[k], winRe[k])
			if first {
				synPha[k] = pha
			} else {
				omega := 2 * math.Pi * float64(k) / float64(frame)
				expected := omega * anaHop
				delta := pha - prevPha[k] - expected
				// Wrap to [-pi, pi].
				delta -= 2 * math.Pi * math.Round(delta/(2*math.Pi))
				trueFreq := omega + delta/anaHop
				synPha[k] += trueFreq * float64(pv.synHop)
			}
			prevPha[k] = pha
			winRe[k] = mag * math.Cos(synPha[k])
			winIm[k] = mag * math.Sin(synPha[k])
			// Hermitian symmetry for the negative bins.
			if k > 0 && k < frame/2 {
				winRe[frame-k] = winRe[k]
				winIm[frame-k] = -winIm[k]
			}
		}
		first = false

		pv.fft.Inverse(winRe, winIm)
		for i := 0; i < frame && outPos+i < len(out); i++ {
			out[outPos+i] += winRe[i] * pv.window[i] / pv.winGain
		}
		outPos += pv.synHop
	}
	if outLen > len(out) {
		outLen = len(out)
	}
	return out[:outLen]
}

// WSOLA implements waveform-similarity overlap-add time stretching: cheap,
// time-domain, well suited to per-packet streaming, which is how the
// engine's preprocessing stage uses it.
type WSOLA struct {
	ratio    float64
	frame    int // segment length
	hop      int // synthesis hop
	seek     int // similarity search half-window
	window   []float64
	prevEnd  []float64 // tail of the previous synthesis segment for matching
	havePrev bool
}

// NewWSOLA returns a WSOLA stretcher with the given segment length (e.g.
// 512 samples) and ratio.
func NewWSOLA(frame int, ratio float64) (*WSOLA, error) {
	if frame < 32 {
		return nil, fmt.Errorf("timestretch: WSOLA frame %d too small", frame)
	}
	w := &WSOLA{
		ratio:   clampRatio(ratio),
		frame:   frame,
		hop:     frame / 2,
		seek:    frame / 4,
		window:  make([]float64, frame),
		prevEnd: make([]float64, frame/2),
	}
	dsp.MakeWindow(dsp.Hann, w.window)
	return w, nil
}

// Name implements Stretcher.
func (w *WSOLA) Name() string { return "wsola" }

// Ratio implements Stretcher.
func (w *WSOLA) Ratio() float64 { return w.ratio }

// SetRatio implements Stretcher.
func (w *WSOLA) SetRatio(r float64) { w.ratio = clampRatio(r) }

// Reset implements Stretcher.
func (w *WSOLA) Reset() {
	for i := range w.prevEnd {
		w.prevEnd[i] = 0
	}
	w.havePrev = false
}

// Stretch processes the whole src clip and returns the stretched result.
func (w *WSOLA) Stretch(src []float64) []float64 {
	outLen := int(float64(len(src)) * w.ratio)
	out := make([]float64, outLen+w.frame)
	norm := make([]float64, len(out))
	anaHop := float64(w.hop) / w.ratio

	outPos := 0
	for pos := 0.0; outPos < outLen; pos += anaHop {
		nominal := int(pos)
		start := w.bestOffset(src, nominal)
		if start+w.frame > len(src) {
			break
		}
		for i := 0; i < w.frame && outPos+i < len(out); i++ {
			out[outPos+i] += src[start+i] * w.window[i]
			norm[outPos+i] += w.window[i]
		}
		// Remember the continuation tail for the next match.
		copy(w.prevEnd, src[start+w.hop:start+w.hop+len(w.prevEnd)])
		w.havePrev = true
		outPos += w.hop
	}
	for i := range out {
		if norm[i] > 1e-9 {
			out[i] /= norm[i]
		}
	}
	if outLen > len(out) {
		outLen = len(out)
	}
	w.havePrev = false
	return out[:outLen]
}

// bestOffset searches ±seek around nominal for the segment whose start best
// matches the expected continuation of the previous output segment
// (normalized cross-correlation).
func (w *WSOLA) bestOffset(src []float64, nominal int) int {
	if !w.havePrev {
		return clampIndex(nominal, 0, len(src)-w.frame)
	}
	lo := nominal - w.seek
	hi := nominal + w.seek
	lo = clampIndex(lo, 0, len(src)-w.frame)
	hi = clampIndex(hi, 0, len(src)-w.frame)
	best := lo
	bestScore := math.Inf(-1)
	n := len(w.prevEnd)
	for cand := lo; cand <= hi; cand++ {
		if cand+n > len(src) {
			break
		}
		score := 0.0
		for i := 0; i < n; i++ {
			score += w.prevEnd[i] * src[cand+i]
		}
		if score > bestScore {
			bestScore = score
			best = cand
		}
	}
	return best
}

func clampIndex(x, lo, hi int) int {
	if hi < lo {
		hi = lo
	}
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
