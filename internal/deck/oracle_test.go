package deck

import (
	"math"
	"testing"

	"djstar/internal/audio"
	"djstar/internal/dsp"
	"djstar/internal/synth"
)

// The bit-exactness oracle for the deck read path. refReadPacket,
// refSampleCubic and refShifterProcess are ReadPacket, sampleCubic and
// PitchShifter.Process as they were before the interior fast path and the
// hoisted phase wraps — moved here verbatim,
// operating on a real Deck's fields, except that each tap reads
// float64(src[i]) from the 16-bit track and the interpolated value is then
// multiplied by the track's Gain. A deck read through ReadPacket
// and a twin read through the reference must agree on every sample and on
// every piece of carried state (playhead, playing flag, shifter phase and
// history). The reference's shifters are built by refNewPitchShifter, with
// the line twice the window that NewPitchShifter had before it was sized
// to what the taps reach.

func refSampleCubic(src []int16, pos, gain float64) float64 {
	n := len(src)
	idx := int(pos)
	t := pos - float64(idx)
	at := func(i int) float64 {
		if i < 0 || i >= n {
			return 0
		}
		return float64(src[i])
	}
	p0, p1, p2, p3 := at(idx-1), at(idx), at(idx+1), at(idx+2)
	a := -0.5*p0 + 1.5*p1 - 1.5*p2 + 0.5*p3
	b := p0 - 2.5*p1 + 2*p2 - 0.5*p3
	c := -0.5*p0 + 0.5*p2
	return (((a*t+b)*t+c)*t + p1) * gain
}

// refNewPitchShifter is NewPitchShifter as it was, verbatim.
func refNewPitchShifter(rate int) *PitchShifter {
	w := float64(rate) * 0.032
	return &PitchShifter{
		line:   dsp.NewDelayLine[float64](int(w) * 2),
		window: w,
	}
}

func refShifterProcess(p *PitchShifter, buf []float64, shift float64) {
	if shift <= 0 {
		shift = 1
	}
	// Tap sweep rate: delay ramps at (1 - shift) samples per sample.
	rate := (1 - shift) / p.window
	for i, x := range buf {
		p.line.Write(x)
		p.phase += rate
		p.phase -= math.Floor(p.phase)

		d1 := p.phase * p.window
		d2 := math.Mod(p.phase+0.5, 1) * p.window
		// Triangular crossfade: tap gain peaks mid-window.
		g1 := 1 - math.Abs(2*p.phase-1)
		g2 := 1 - g1
		buf[i] = p.line.ReadFrac(1+d1)*g1 + p.line.ReadFrac(1+d2)*g2
	}
}

func refReadPacket(d *Deck, dst audio.Stereo) {
	if !d.playing || d.track == nil {
		dst.Zero()
		return
	}
	n := dst.Len()
	trackLen := float64(d.track.Len())

	// Read with resampling, honoring the loop one sample at a time so the
	// wrap lands exactly on the loop boundary.
	pos := d.pos
	for i := 0; i < n; i++ {
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
		dst.L[i] = refSampleCubic(d.track.L, pos, d.track.Gain)
		dst.R[i] = refSampleCubic(d.track.R, pos, d.track.Gain)
		pos += d.tempo
	}
	d.pos = pos

	// Key lock: the resample above shifted pitch by tempo; shift it back
	// by 1/tempo so the key is preserved.
	if d.keyLock && math.Abs(d.tempo-1) > 1e-6 {
		shift := 1 / d.tempo
		refShifterProcess(d.shifterL, dst.L, shift)
		refShifterProcess(d.shifterR, dst.R, shift)
	}
}

// oracleLens is the packet schedule: 2000 standard packets, then the odd
// lengths that exercise the tail handling.
func oracleLens() []int {
	lens := make([]int, 0, 2400)
	for i := 0; i < 2000; i++ {
		lens = append(lens, audio.PacketSize)
	}
	for i := 0; i < 100; i++ {
		lens = append(lens, 1, 7, 127, 128)
	}
	return lens
}

// oracleTracks returns a synthetic deck track and a track of seeded noise.
func oracleTracks() []*synth.Track {
	n := 60000
	return []*synth.Track{
		synth.GenerateTrack(synth.TrackSpec{Name: "synthetic", Bars: 2, Seed: 1}),
		{Name: "noise", BPM: 126, FramesPerBar: n / 2, Gain: 1.0 / 32767,
			L: pcm(synth.WhiteNoise(n, 0.5, 31)), R: pcm(synth.WhiteNoise(n, 0.5, 32))},
	}
}

// pcm stores a float64 signal in [−1, 1] as a track channel of gain
// 1/32767.
func pcm(x []float64) []int16 {
	out := make([]int16, len(x))
	for i, v := range x {
		out[i] = audio.PCM16(v)
	}
	return out
}

// f64 widens a track channel to the values it stands for.
func f64(x []int16, gain float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = float64(v) * gain
	}
	return out
}

// samePacket fails on the first differing sample.
func samePacket(t *testing.T, got, want audio.Stereo) {
	t.Helper()
	for i := range want.L {
		if got.L[i] != want.L[i] || got.R[i] != want.R[i] {
			t.Fatalf("sample %d = (%v, %v), want (%v, %v)", i, got.L[i], got.R[i], want.L[i], want.R[i])
		}
	}
}

// sameDeckState compares everything a read carries to the next one.
func sameDeckState(t *testing.T, got, want *Deck) {
	t.Helper()
	if got.pos != want.pos || got.playing != want.playing {
		t.Fatalf("playhead %v playing %v, want %v %v", got.pos, got.playing, want.pos, want.playing)
	}
	if got.shifterL.phase != want.shifterL.phase || got.shifterR.phase != want.shifterR.phase {
		t.Fatalf("shifter phase %v/%v, want %v/%v",
			got.shifterL.phase, got.shifterR.phase, want.shifterL.phase, want.shifterR.phase)
	}
}

func TestOracleReadPacket(t *testing.T) {
	type setup struct {
		name    string
		tempo   float64
		keyLock bool
		// loop bounds as fractions of the track length; end 0 = no loop.
		loopStart, loopEnd float64
		start              float64 // initial playhead, fraction of the track
	}
	setups := []setup{
		// The four decks of the standard graph: whole-track loop.
		{"deck-a", 1.0, false, 0, 1, 0},
		{"deck-b", 0.97, true, 0, 1, 0},
		{"deck-c", 1.03, false, 0, 1, 0},
		{"deck-d", 0.99, true, 0, 1, 0},
		// A short loop with fractional bounds, wrapping every few packets.
		{"short-loop", 1.5, false, 0.100003, 0.1251, 0.1},
		{"short-loop-keylock", 0.5, true, 0.3, 0.30701, 0.3},
		// A loop whose end lies past the end of the track: the deck stops.
		{"loop-past-end", 1.0, false, 0.5, 1.5, 0.9},
		// No loop: the end-of-track packet, then silence.
		{"to-the-end", 1.03, true, 0, 0, 0.2},
		{"to-the-end-slow", 0.5, false, 0, 0, 0.99},
	}
	for _, tr := range oracleTracks() {
		for _, su := range setups {
			t.Run(tr.Name+"/"+su.name, func(t *testing.T) {
				mk := func() *Deck {
					d := New(su.name, audio.SampleRate)
					d.Load(tr)
					n := float64(tr.Len())
					if su.loopEnd > 0 {
						d.SetLoop(su.loopStart*n, su.loopEnd*n)
					}
					d.Seek(su.start * n)
					d.SetTempo(su.tempo)
					d.SetKeyLock(su.keyLock)
					d.Play()
					return d
				}
				d, ref := mk(), mk()
				ref.shifterL, ref.shifterR = refNewPitchShifter(audio.SampleRate), refNewPitchShifter(audio.SampleRate)
				for p, n := range oracleLens() {
					got, want := audio.NewStereo(n), audio.NewStereo(n)
					got.L[0], want.L[0] = 99, 99 // must be overwritten
					d.ReadPacket(got)
					refReadPacket(ref, want)
					samePacket(t, got, want)
					sameDeckState(t, d, ref)
					if t.Failed() {
						t.Fatalf("packet %d (%d samples)", p, n)
					}
					if p%500 == 250 { // nudge the pitch fader mid-run
						d.SetTempo(su.tempo * 1.01)
						ref.SetTempo(su.tempo * 1.01)
					}
				}
				// The shifters' histories: identical future output proves it.
				probe, probeRef := make([]float64, 4096), make([]float64, 4096)
				d.shifterL.Process(probe, 1.25)
				refShifterProcess(ref.shifterL, probeRef, 1.25)
				for i := range probe {
					if probe[i] != probeRef[i] {
						t.Fatalf("shifter history differs at tap %d", i)
					}
				}
			})
		}
	}
}

// TestOraclePitchShifter sweeps the shift ratio: 1/tempo for every deck
// tempo from 0.5 to 1.5 in steps of 0.05, then ratios no deck tempo
// produces, where the phase wraps on nearly every sample.
func TestOraclePitchShifter(t *testing.T) {
	src := oracleTracks()
	var shifts []float64
	for k := 0; k <= 20; k++ {
		shifts = append(shifts, 1/(0.5+float64(k)/20))
	}
	for _, shift := range append(shifts, 1/0.97, 1/1.03, 0.5, 0, -3, 700, 1412, 5000, 1e9, math.Inf(1)) {
		p, ref := NewPitchShifter(audio.SampleRate), refNewPitchShifter(audio.SampleRate)
		for _, tr := range src {
			at := 0
			for _, n := range oracleLens()[1500:] {
				got := f64(tr.L[at:at+n], tr.Gain)
				want := append([]float64(nil), got...)
				p.Process(got, shift)
				refShifterProcess(ref, want, shift)
				for i := range want {
					// NaN != NaN: compare the bits, an infinite ratio yields NaN.
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("shift %v: sample %d = %v, want %v", shift, i, got[i], want[i])
					}
				}
				if math.Float64bits(p.phase) != math.Float64bits(ref.phase) {
					t.Fatalf("shift %v: phase %v, want %v", shift, p.phase, ref.phase)
				}
				at = (at + n) % (tr.Len() - 256)
			}
		}
	}
}
