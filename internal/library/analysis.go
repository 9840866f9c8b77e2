// Package library implements the track-management subsystem of DJ Star's
// Core layer ("Audio Data Collection" and "Track Preprocessing" in the
// paper's Fig. 2 architecture): offline track analysis — tempo (BPM)
// estimation, musical key detection, beat-grid construction and waveform
// overview rendering — plus a name-keyed index of analyzed tracks.
// djanalyze's default mode (the BPM/key/beat-grid report, WAV import and
// -match) is the package's only caller.
//
// Analysis is offline work done when a track is loaded into the library,
// not part of the 2.9 ms audio processing cycle; it may allocate freely.
package library

import (
	"fmt"
	"math"

	"djstar/internal/dsp"
)

// Analysis is the result of analyzing one track.
type Analysis struct {
	// BPM is the estimated tempo in beats per minute.
	BPM float64
	// BPMConfidence is the autocorrelation peak strength in (0, 1];
	// higher is more reliable.
	BPMConfidence float64
	// Key is the estimated musical root as a pitch class 0..11
	// (0 = C, 9 = A).
	Key int
	// KeyName is the conventional name of Key ("A", "C#", ...).
	KeyName string
	// BeatGrid holds the estimated beat positions in frames.
	BeatGrid []int
	// Overview is the waveform display data (see Overview type).
	Overview Overview
	// DurationSeconds is the track length.
	DurationSeconds float64
}

// Analyzer runs track analysis with fixed parameters.
type Analyzer struct {
	rate      int
	hop       int
	keyFFT    *dsp.FFT
	keyWindow []float64
}

// onset-envelope parameters: 512-sample hops give ~86 envelope samples
// per second at 44.1 kHz, plenty for tempo in the DJ range. Key detection
// uses a long frame so bass fundamentals resolve to the right pitch class
// (an 8192-point frame at 44.1 kHz gives ~5.4 Hz bins; a semitone at
// 55 Hz is ~3.3 Hz, so we start the chroma band an octave up at 100 Hz
// where bins separate adjacent classes cleanly).
const (
	analysisHop   = 512
	analysisFrame = 2048
	keyFrame      = 8192

	// MinBPM and MaxBPM bound the tempo search (the usual DJ range).
	MinBPM = 70.0
	MaxBPM = 180.0
)

// NewAnalyzer returns an analyzer for the given sampling rate.
func NewAnalyzer(rate int) *Analyzer {
	a := &Analyzer{
		rate:      rate,
		hop:       analysisHop,
		keyFFT:    dsp.MustFFT(keyFrame),
		keyWindow: make([]float64, keyFrame),
	}
	dsp.MakeWindow(dsp.Hann, a.keyWindow)
	return a
}

// Analyze runs the full analysis over a stereo clip, a track's two
// channels.
func (a *Analyzer) Analyze(l, r []float32) (*Analysis, error) {
	n := len(l)
	if n < analysisFrame {
		return nil, fmt.Errorf("library: clip too short to analyze (%d frames)", n)
	}
	envelope := a.onsetEnvelope(l, r)
	bpm, conf := a.estimateBPM(envelope)
	grid := a.beatGrid(envelope, bpm)
	key := a.estimateKey(l, r)

	return &Analysis{
		BPM:             bpm,
		BPMConfidence:   conf,
		Key:             key,
		KeyName:         KeyName(key),
		BeatGrid:        grid,
		Overview:        BuildOverview(l, r, 400),
		DurationSeconds: float64(n) / float64(a.rate),
	}, nil
}

// mid is the mono mix of frame i, read straight from the float32
// channels: no mono copy of the clip is made.
func mid(l, r []float32, i int) float64 { return 0.5 * (float64(l[i]) + float64(r[i])) }

// onsetEnvelope computes a half-wave-rectified energy-difference envelope
// of the mono mix at hop resolution: large values mark percussive onsets
// (the kick drum, for our synthetic tracks).
func (a *Analyzer) onsetEnvelope(l, r []float32) []float64 {
	hops := (len(l) - a.hop) / a.hop
	if hops < 2 {
		return nil
	}
	energy := make([]float64, hops)
	for h := 0; h < hops; h++ {
		sum := 0.0
		for i := h * a.hop; i < h*a.hop+a.hop; i++ {
			s := mid(l, r, i)
			sum += s * s
		}
		energy[h] = math.Sqrt(sum / float64(a.hop))
	}
	env := make([]float64, hops)
	for h := 1; h < hops; h++ {
		if d := energy[h] - energy[h-1]; d > 0 {
			env[h] = d
		}
	}
	return env
}

// estimateBPM autocorrelates the onset envelope over the lag range
// corresponding to [MinBPM, MaxBPM] and picks the strongest peak,
// preferring the base tempo over its half/double ambiguities.
func (a *Analyzer) estimateBPM(env []float64) (bpm, confidence float64) {
	if len(env) < 8 {
		return 0, 0
	}
	mean := 0.0
	for _, v := range env {
		mean += v
	}
	mean /= float64(len(env))
	centered := make([]float64, len(env))
	var norm float64
	for i, v := range env {
		centered[i] = v - mean
		norm += centered[i] * centered[i]
	}
	if norm == 0 {
		return 0, 0
	}

	hopSec := float64(a.hop) / float64(a.rate)
	minLag := int(60 / MaxBPM / hopSec)
	maxLag := int(60 / MinBPM / hopSec)
	if maxLag >= len(env) {
		maxLag = len(env) - 1
	}
	if minLag < 1 {
		minLag = 1
	}

	bestLag, bestScore := 0, 0.0
	for lag := minLag; lag <= maxLag; lag++ {
		if score := rawAutocorr(centered, lag) / norm; score > bestScore {
			bestScore = score
			bestLag = lag
		}
	}
	if bestLag == 0 {
		return 0, 0
	}
	// Octave disambiguation: autocorrelation often peaks at the 2-beat
	// period; prefer the base tempo when its peak is nearly as strong.
	if half := bestLag / 2; half >= minLag {
		if s := rawAutocorr(centered, half) / norm; s > 0.75*bestScore {
			bestLag = half
			bestScore = s
		}
	}

	// Parabolic refinement around the integer-lag peak: vertex offset
	// δ = (y0 - y2) / (2 (y0 - 2 y1 + y2)) for samples at lag-1, lag,
	// lag+1.
	refined := float64(bestLag)
	if bestLag > minLag && bestLag < maxLag {
		y0 := rawAutocorr(centered, bestLag-1)
		y1 := rawAutocorr(centered, bestLag)
		y2 := rawAutocorr(centered, bestLag+1)
		if den := y0 - 2*y1 + y2; den != 0 {
			delta := 0.5 * (y0 - y2) / den
			if delta > -1 && delta < 1 {
				refined += delta
			}
		}
	}
	bpm = 60 / (refined * hopSec)
	if bestScore > 1 {
		bestScore = 1
	}
	return bpm, bestScore
}

func rawAutocorr(x []float64, lag int) float64 {
	sum := 0.0
	for i := lag; i < len(x); i++ {
		sum += x[i] * x[i-lag]
	}
	return sum
}

// beatGrid places beats at onset-envelope peaks near the BPM period,
// anchored at the strongest onset.
func (a *Analyzer) beatGrid(env []float64, bpm float64) []int {
	if bpm <= 0 || len(env) == 0 {
		return nil
	}
	hopSec := float64(a.hop) / float64(a.rate)
	period := 60 / bpm / hopSec // beat period in hops

	// Anchor: strongest onset in the first two beats.
	anchor := 0
	limit := min(int(period*2)+1, len(env))
	for i := 1; i < limit; i++ {
		if env[i] > env[anchor] {
			anchor = i
		}
	}
	var grid []int
	for pos := float64(anchor); pos < float64(len(env)); pos += period {
		// Snap to the local envelope maximum within ±10 % of a period.
		c := int(pos)
		lo := max(c-int(period/10), 0)
		hi := min(c+int(period/10)+1, len(env))
		best := c
		for i := lo; i < hi; i++ {
			if env[i] > env[best] {
				best = i
			}
		}
		grid = append(grid, best*a.hop)
	}
	return grid
}

// estimateKey accumulates a chroma vector (energy per pitch class) from
// FFT frames and returns the dominant pitch class — a deliberately simple
// root detector suited to the bass-forward program material of a DJ
// library.
func (a *Analyzer) estimateKey(l, r []float32) int {
	var chroma [12]float64
	re := make([]float64, keyFrame)
	im := make([]float64, keyFrame)
	mags := make([]float64, keyFrame/2)

	step := keyFrame // non-overlapping frames are plenty here
	for start := 0; start+keyFrame <= len(l); start += step {
		for i := 0; i < keyFrame; i++ {
			re[i] = mid(l, r, start+i) * a.keyWindow[i]
			im[i] = 0
		}
		a.keyFFT.Transform(re, im)
		dsp.Magnitudes(re, im, mags)
		binHz := float64(a.rate) / keyFrame
		for b := 1; b < len(mags); b++ {
			freq := float64(b) * binHz
			if freq < 100 || freq > 2000 {
				continue
			}
			// MIDI note number -> pitch class.
			note := 69 + 12*math.Log2(freq/440)
			pc := ((int(math.Round(note)) % 12) + 12) % 12
			chroma[pc] += mags[b] * mags[b]
		}
	}
	best := 0
	for pc := 1; pc < 12; pc++ {
		if chroma[pc] > chroma[best] {
			best = pc
		}
	}
	return best
}

// keyNames indexes pitch classes: 0 = C.
var keyNames = [12]string{"C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B"}

// KeyName returns the conventional name of pitch class pc (0 = C).
func KeyName(pc int) string {
	return keyNames[((pc%12)+12)%12]
}

// Overview is decimated waveform data for display: per display bucket,
// the peak and RMS of the underlying samples.
type Overview struct {
	Peak []float64
	RMS  []float64
}

// BuildOverview decimates a clip, a track's two channels, into the given
// number of display buckets.
func BuildOverview(l, r []float32, buckets int) Overview {
	if buckets < 1 {
		buckets = 1
	}
	n := len(l)
	ov := Overview{
		Peak: make([]float64, buckets),
		RMS:  make([]float64, buckets),
	}
	if n == 0 {
		return ov
	}
	for b := 0; b < buckets; b++ {
		lo := b * n / buckets
		hi := (b + 1) * n / buckets
		if hi <= lo {
			hi = lo + 1
		}
		if hi > n {
			hi = n
		}
		peak, sum := 0.0, 0.0
		for i := lo; i < hi; i++ {
			v := math.Max(math.Abs(float64(l[i])), math.Abs(float64(r[i])))
			if v > peak {
				peak = v
			}
			m := mid(l, r, i)
			sum += m * m
		}
		ov.Peak[b] = peak
		ov.RMS[b] = math.Sqrt(sum / float64(hi-lo))
	}
	return ov
}

// Render draws the overview as an ASCII waveform of the given height
// (rows above and below a center line).
func (ov Overview) Render(height int) string {
	if height < 1 {
		height = 1
	}
	w := len(ov.Peak)
	rows := make([][]byte, 2*height+1)
	for r := range rows {
		rows[r] = make([]byte, w)
		for c := range rows[r] {
			rows[r][c] = ' '
		}
	}
	for c := 0; c < w; c++ {
		p := int(math.Round(ov.Peak[c] * float64(height)))
		r := int(math.Round(ov.RMS[c] * float64(height)))
		for y := 1; y <= p && y <= height; y++ {
			ch := byte('|')
			if y <= r {
				ch = '#'
			}
			rows[height-y][c] = ch
			rows[height+y][c] = ch
		}
		rows[height][c] = '-'
	}
	out := make([]byte, 0, (w+1)*(2*height+1))
	for _, r := range rows {
		out = append(out, r...)
		out = append(out, '\n')
	}
	return string(out)
}
