// Package deck implements the DJ Star track players ("Decks" in the
// paper's architecture, Fig. 2). A Deck streams audio packets out of a
// loaded track with variable tempo (vinyl-style resampling), optional
// key lock (granular pitch compensation so tempo changes do not change
// pitch) and loops. Four Decks feed the audio graph.
package deck

import (
	"math"

	"djstar/internal/audio"
	"djstar/internal/dsp"
	"djstar/internal/synth"
)

// Deck is a single track player. It is not safe for concurrent use; the
// engine mutates decks only between graph executions (in the GP stage).
type Deck struct {
	name  string
	rate  int
	track *synth.Track

	pos     float64 // playhead in track frames
	playing bool
	tempo   float64 // playback rate, 1 = original tempo
	keyLock bool

	loopStart, loopEnd float64
	loopOn             bool

	shifterL, shifterR *PitchShifter
}

// New returns a stopped, empty deck for the given sampling rate.
func New(name string, rate int) *Deck {
	return &Deck{
		name:     name,
		rate:     rate,
		tempo:    1,
		shifterL: NewPitchShifter(rate),
		shifterR: NewPitchShifter(rate),
	}
}

// Name returns the deck's label ("deck-a", ...).
func (d *Deck) Name() string { return d.name }

// Load puts a track on the deck and rewinds to the start.
func (d *Deck) Load(t *synth.Track) {
	d.track = t
	d.pos = 0
	d.playing = false
	d.loopOn = false
	d.shifterL.Reset()
	d.shifterR.Reset()
}

// Track returns the loaded track, or nil.
func (d *Deck) Track() *synth.Track { return d.track }

// Play starts playback (no-op without a track).
func (d *Deck) Play() {
	if d.track != nil {
		d.playing = true
	}
}

// Pause stops playback, keeping the playhead.
func (d *Deck) Pause() { d.playing = false }

// Playing reports whether the deck is rolling.
func (d *Deck) Playing() bool { return d.playing }

// Position returns the playhead in track frames.
func (d *Deck) Position() float64 { return d.pos }

// Seek moves the playhead, clamped to the track bounds.
func (d *Deck) Seek(frames float64) {
	if d.track == nil {
		return
	}
	d.pos = audio.Clamp(frames, 0, float64(d.track.Len()))
}

// SetTempo sets the playback rate; clamped to the ±50 % range a wide DJ
// pitch fader offers.
func (d *Deck) SetTempo(rate float64) {
	d.tempo = audio.Clamp(rate, 0.5, 1.5)
}

// Tempo returns the playback rate.
func (d *Deck) Tempo() float64 { return d.tempo }

// SetKeyLock enables or disables pitch compensation.
func (d *Deck) SetKeyLock(on bool) { d.keyLock = on }

// SetLoop arms a loop between start and end (frames). An end at or before
// start disables the loop.
func (d *Deck) SetLoop(start, end float64) {
	if end <= start {
		d.loopOn = false
		return
	}
	d.loopStart, d.loopEnd = start, end
	d.loopOn = true
}

// ClearLoop disables the loop.
func (d *Deck) ClearLoop() { d.loopOn = false }

// BeatPhase returns the playhead's position within the current bar in
// [0, 1), or 0 if no track is loaded. Used by the beat-grid control nodes.
func (d *Deck) BeatPhase() float64 {
	if d.track == nil || d.track.FramesPerBar == 0 {
		return 0
	}
	bar := math.Mod(d.pos, float64(d.track.FramesPerBar))
	return bar / float64(d.track.FramesPerBar)
}

// ReadPacket fills dst with the next packet of deck output and advances
// the playhead. A stopped or empty deck writes silence. When the playhead
// passes the end of the track, the deck stops.
func (d *Deck) ReadPacket(dst audio.Stereo) {
	if !d.playing || d.track == nil {
		dst.Zero()
		return
	}
	n := dst.Len()
	srcL, srcR := d.track.L, d.track.R
	srcR = srcR[:len(srcL)]
	trackLen := float64(len(srcL))
	pos, tempo := d.pos, d.tempo
	loopEnd := math.Inf(1)
	if d.loopOn {
		loopEnd = d.loopEnd
	}
	for i := 0; i < n; i++ {
		// Interior: short of the loop end with all four taps inside the
		// track — every sample but the few around a wrap or the end of
		// the track. Straight Catmull-Rom, nothing to wrap or clamp.
		if j := int(pos) - 1; j >= 0 && j+3 < len(srcL) && pos < loopEnd {
			t := pos - float64(j+1)
			dst.L[i] = dsp.CatmullRom(float64(srcL[j]), float64(srcL[j+1]), float64(srcL[j+2]), float64(srcL[j+3]), t)
			dst.R[i] = dsp.CatmullRom(float64(srcR[j]), float64(srcR[j+1]), float64(srcR[j+2]), float64(srcR[j+3]), t)
			pos += tempo
			continue
		}
		// Edge: honor the loop one sample at a time so the wrap lands
		// exactly on the loop boundary, and read taps beyond the track as 0.
		if d.loopOn && pos >= d.loopEnd {
			pos = d.loopStart + math.Mod(pos-d.loopEnd, d.loopEnd-d.loopStart)
		}
		if pos >= trackLen {
			// End of track: silence the rest and stop.
			for ; i < n; i++ {
				dst.L[i] = 0
				dst.R[i] = 0
			}
			d.playing = false
			d.pos = trackLen
			return
		}
		dst.L[i] = sampleCubic(srcL, pos)
		dst.R[i] = sampleCubic(srcR, pos)
		pos += tempo
	}
	d.pos = pos

	// Key lock: the resample above shifted pitch by tempo; shift it back
	// by 1/tempo so the key is preserved.
	if d.keyLock && math.Abs(d.tempo-1) > 1e-6 {
		shift := 1 / d.tempo
		d.shifterL.Process(dst.L, shift)
		d.shifterR.Process(dst.R, shift)
	}
}

// sampleCubic reads one Catmull-Rom interpolated sample at fractional
// position pos, with taps outside src reading as 0.
func sampleCubic(src []float32, pos float64) float64 {
	idx := int(pos)
	var p [4]float64
	for k := range p {
		if i := idx - 1 + k; i >= 0 && i < len(src) {
			p[k] = float64(src[i])
		}
	}
	return dsp.CatmullRom(p[0], p[1], p[2], p[3], pos-float64(idx))
}

// PitchShifter is a classic dual-tap delay-line pitch shifter: two read
// taps sweep through a short window at a rate offset of (shift-1), each
// faded by a triangular window and crossfaded against the other, which
// hides the tap resets. It is the per-packet granular kernel behind key
// lock — the "time stretching, phase alignment" preprocessing work the
// paper measures at 33 % of the APC.
type PitchShifter struct {
	line   *dsp.DelayLine[float64]
	window float64 // sweep window in samples
	phase  float64 // tap sweep phase in [0, 1)
}

// NewPitchShifter returns a shifter with a ~32 ms grain window. Its line
// holds what the taps reach: 1 + window samples back, and one more.
func NewPitchShifter(rate int) *PitchShifter {
	w := float64(rate) * 0.032
	return &PitchShifter{
		line:   dsp.NewDelayLine[float64](int(w) + 3),
		window: w,
	}
}

// Reset clears the shifter history.
func (p *PitchShifter) Reset() {
	p.line.Reset()
	p.phase = 0
}

// Process pitch-shifts buf in place by the given ratio (2 = up an octave).
func (p *PitchShifter) Process(buf []float64, shift float64) {
	if shift <= 0 {
		shift = 1
	}
	// Tap sweep rate: delay ramps at (1 - shift) samples per sample.
	rate := (1 - shift) / p.window
	window, phase := p.window, p.phase
	for i, x := range buf {
		p.line.Write(x)
		// Wrap the phase into [0, 1]. It moves by |rate| << 1 per sample,
		// so it is nearly always still inside and x - Floor(x) = x - 0
		// leaves it as it is; Floor runs only on the wrapping sample.
		phase += rate
		if phase < 0 || phase >= 1 {
			phase -= math.Floor(phase)
		}

		d1 := phase * window
		// The second tap runs half a window ahead: Mod(phase+0.5, 1). With
		// phase in [0, 1] the sum is in [0.5, 1.5], where Mod is the
		// identity below 1 and an exact subtraction of 1 from there on.
		half := phase + 0.5
		if half >= 1 {
			half -= 1
		}
		d2 := half * window
		// Triangular crossfade: tap gain peaks mid-window.
		g1 := 1 - math.Abs(2*phase-1)
		g2 := 1 - g1
		buf[i] = p.line.ReadFrac(1+d1)*g1 + p.line.ReadFrac(1+d2)*g2
	}
	p.phase = phase
}
