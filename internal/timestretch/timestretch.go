// Package timestretch implements tempo manipulation without pitch change.
//
// In DJ Star the "audio stream preprocessing (time stretching, phase
// alignment, buffer overhead)" accounts for 33 % of APC run time (paper
// §III-B); the authors deliberately leave it sequential because good
// parallel versions of the underlying algorithms exist. This package
// implements one standard algorithm, WSOLA (time-domain, cheap).
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

// WSOLA implements waveform-similarity overlap-add time stretching: cheap
// and time-domain.
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
