// Package synth generates deterministic test audio.
//
// The original DJ Star evaluation ran "four decks with different audio
// tracks" of licensed music that we cannot ship. This package substitutes
// procedurally generated dance-music-like tracks: a kick/bass/lead pattern
// arranged in bars, with alternating loud and quiet sections. The loud/quiet
// alternation matters for the reproduction: the paper's execution-time
// histograms (Fig. 9) are bimodal because node cost depends on the audio
// data, and signal-energy-dependent effect load reproduces exactly that.
package synth

import (
	"math"
	"runtime"
	"slices"
	"sync"

	"djstar/internal/audio"
)

// Rand is a tiny deterministic xorshift64* PRNG so that track generation is
// reproducible across runs and platforms without math/rand global state.
type Rand struct{ state uint64 }

// NewRand returns a PRNG seeded with seed (0 is replaced by a fixed odd
// constant so the generator never sticks at zero).
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Rand{state: seed}
}

// Uint64 returns the next pseudo-random 64-bit value.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns an approximately standard-normal value using the sum
// of 12 uniforms (Irwin–Hall); plenty for audio noise and jitter purposes.
func (r *Rand) NormFloat64() float64 {
	s := 0.0
	for i := 0; i < 12; i++ {
		s += r.Float64()
	}
	return s - 6
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("synth: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Oscillator shapes supported by Osc.
type Waveform int

const (
	Sine Waveform = iota
	Saw
	Square
	Triangle
)

// Osc is a phase-accumulating oscillator producing one sample per Next call.
type Osc struct {
	Shape Waveform
	phase float64
	inc   float64
}

// NewOsc returns an oscillator of the given shape at freq Hz for sampling
// rate hz.
func NewOsc(shape Waveform, freq float64, hz int) *Osc {
	return &Osc{Shape: shape, inc: freq / float64(hz)}
}

// SetFreq retunes the oscillator without resetting phase.
func (o *Osc) SetFreq(freq float64, hz int) { o.inc = freq / float64(hz) }

// step advances the phase by one sample and returns the phase before it.
func (o *Osc) step() float64 {
	p := o.phase
	o.phase += o.inc
	if o.phase >= 1 {
		o.phase -= math.Floor(o.phase)
	}
	return p
}

// Next returns the next sample in [-1, 1].
func (o *Osc) Next() float64 {
	p := o.step()
	switch o.Shape {
	case Saw:
		return 2*p - 1
	case Square:
		if p < 0.5 {
			return 1
		}
		return -1
	case Triangle:
		if p < 0.5 {
			return 4*p - 1
		}
		return 3 - 4*p
	default:
		return math.Sin(2 * math.Pi * p)
	}
}

// ADSR is a simple attack/decay/sustain/release envelope expressed in
// samples. Gate length controls when release begins.
type ADSR struct {
	Attack, Decay, Release int
	Sustain                float64
}

// Level returns the envelope level at sample i of a note whose gate is held
// for gateLen samples.
func (e ADSR) Level(i, gateLen int) float64 {
	switch {
	case i < 0:
		return 0
	case i < e.Attack:
		return float64(i) / float64(max(e.Attack, 1))
	case i < e.Attack+e.Decay:
		t := float64(i-e.Attack) / float64(max(e.Decay, 1))
		return 1 - t*(1-e.Sustain)
	case i < gateLen:
		return e.Sustain
	case i < gateLen+e.Release:
		t := float64(i-gateLen) / float64(max(e.Release, 1))
		return e.Sustain * (1 - t)
	default:
		return 0
	}
}

// Track is a generated stereo audio clip with tempo metadata.
type Track struct {
	Name string
	BPM  float64
	// L and R hold the full clip as 16-bit PCM, as a CD source decodes to,
	// and sample i's value is float64(L[i])·Gain: within ½·Gain of the
	// float64 render for a generated clip (DESIGN.md §29). Readers widen
	// the taps they use and apply Gain once per output sample.
	L, R []int16
	Gain float64
	// LoudBars marks, per bar, whether the bar was rendered in the loud
	// (full arrangement) or quiet (sparse) section. Used by tests.
	LoudBars []bool
	// FramesPerBar is the length of one 4/4 bar in frames.
	FramesPerBar int
}

// Len returns the number of frames in the track.
func (t *Track) Len() int { return len(t.L) }

// TrackSpec configures GenerateTrack.
type TrackSpec struct {
	Name string
	BPM  float64 // beats per minute; default 126
	Bars int     // number of 4/4 bars; default 16
	Seed uint64  // PRNG seed; same seed, same track
	Rate int     // sampling rate; default audio.SampleRate
	// QuietEvery renders every n-th group of 2 bars at low level to create
	// the loud/quiet alternation. 0 means the default, 2; a negative value
	// disables quiet sections.
	QuietEvery int
	// Key shifts the root note in semitones relative to A (55 Hz bass).
	Key int
}

// defaults replaces a non-positive BPM, Bars or Rate and a zero QuietEvery.
func (s *TrackSpec) defaults() {
	if s.BPM <= 0 {
		s.BPM = 126
	}
	if s.Bars <= 0 {
		s.Bars = 16
	}
	if s.Rate <= 0 {
		s.Rate = audio.SampleRate
	}
	if s.QuietEvery == 0 {
		s.QuietEvery = 2
	}
}

// GenerateTrack renders a deterministic dance-style track: four-on-the-floor
// kick, off-beat bass, a simple lead arpeggio and hat noise, arranged into
// alternating loud and quiet two-bar groups. Its beats render on up to
// GOMAXPROCS goroutines, bit for bit as one goroutine renders them.
func GenerateTrack(spec TrackSpec) *Track {
	return generateTrack(spec, runtime.GOMAXPROCS(0))
}

// generateTrack renders spec on min(workers, beats) goroutines, each
// taking a contiguous run of beats. Every worker starts from a copy of the
// voices as the first beat finds them and skips that copy over the beats
// before its run, so each beat starts from the state a sequential render
// hands it. Worker 0 skips nothing, so every skip overlaps a render.
func generateTrack(spec TrackSpec, workers int) *Track {
	a, start := newArrangement(spec)
	beats := 4 * len(a.tr.LoudBars)
	w := max(min(workers, beats), 1)
	peaks := make([]float64, w)
	var wg sync.WaitGroup
	for k := 1; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			peaks[k] = a.run(start, k*beats/w, (k+1)*beats/w)
		}()
	}
	peaks[0] = a.run(start, 0, beats/w)
	wg.Wait()
	// Each beat is stored as int16 against the fixed headroom, so no float
	// copy of the clip is ever held and no sample is rounded twice. The
	// float64 peak is kept, and the gain carries the normalization to 0.95.
	if peak := slices.Max(peaks); peak > 0 {
		a.tr.Gain = 0.95 / peak * headroom / 32767
	}
	return a.tr
}

// headroom bounds a rendered sample before normalization, so x/headroom
// never reaches PCM16's clamp: |x| ≤ 0.9 kick + 0.5 bass + 0.26 lead +
// 0.12·6 hats = 2.38 in a loud bar, as rng.NormFloat64 (Irwin–Hall) lies
// in [−6, 6], and less in a quiet one. The standard tracks peak near 1.3.
const headroom = 2.4

// arrangement is what every beat of one track reads: the rate, the
// arpeggio, the envelopes, the kick and the track it renders into, whose
// LoudBars are set before any beat renders.
type arrangement struct {
	rate             int
	frames           int // per beat
	root             float64
	arp              []int
	bassEnv, leadEnv ADSR
	// kick is the kick's sample at each frame of a beat, before its level.
	kick []float64
	tr   *Track
}

// voices is the state a beat advances: the two oscillators' phases and
// the hats' noise.
type voices struct {
	bass, lead Osc
	rng        Rand
}

// newArrangement allocates spec's track and returns its arrangement with
// the voices as the first beat finds them.
func newArrangement(spec TrackSpec) (*arrangement, voices) {
	spec.defaults()
	rng := NewRand(spec.Seed)
	frames := int(math.Round(60 / spec.BPM * float64(spec.Rate)))
	a := &arrangement{
		rate:    spec.Rate,
		frames:  frames,
		root:    55.0 * math.Pow(2, float64(spec.Key)/12),
		arp:     make([]int, 8),
		bassEnv: ADSR{Attack: 32, Decay: spec.Rate / 6, Sustain: 0.3, Release: 256},
		leadEnv: ADSR{Attack: 64, Decay: spec.Rate / 10, Sustain: 0.2, Release: 512},
		tr: &Track{
			Name:         spec.Name,
			BPM:          spec.BPM,
			L:            make([]int16, spec.Bars*4*frames),
			R:            make([]int16, spec.Bars*4*frames),
			LoudBars:     make([]bool, spec.Bars),
			FramesPerBar: 4 * frames,
		},
	}
	for bar := range a.tr.LoudBars {
		a.tr.LoudBars[bar] = spec.QuietEvery <= 0 || (bar/2)%spec.QuietEvery != spec.QuietEvery-1
	}
	// Arpeggio pattern in semitones over the root, regenerated per track.
	scale := []int{0, 3, 5, 7, 10, 12}
	for i := range a.arp {
		a.arp[i] = scale[rng.Intn(len(scale))]
	}
	// Kick: a pitch-swept sine on the beat, tuned to the track key so it
	// reinforces the root. It depends only on the frame within the beat,
	// so it is rendered once. Past the envelope's end a beat would add ±0
	// to the +0 each sample starts from, which leaves every bit as it was:
	// the table stops there, and holds +0 wherever the envelope is 0.
	kickEnv := ADSR{Attack: 8, Decay: spec.Rate / 8, Sustain: 0, Release: 64}
	a.kick = make([]float64, min(frames, max(kickEnv.Attack+kickEnv.Decay, frames/4+kickEnv.Release)))
	for i := range a.kick {
		if env := kickEnv.Level(i, frames/4); env != 0 {
			kt := float64(i) / float64(spec.Rate)
			a.kick[i] = math.Sin(2*math.Pi*(a.root+90*math.Exp(-kt*30))*kt) * env
		}
	}
	return a, voices{bass: *NewOsc(Saw, a.root, spec.Rate), lead: *NewOsc(Square, a.root*4, spec.Rate), rng: *rng}
}

// run renders beats [from, to) from v, the voices as beat 0 finds them,
// and returns their float64 peak.
func (a *arrangement) run(v voices, from, to int) float64 {
	for b := 0; b < from; b++ {
		a.skip(&v, b)
	}
	peak := 0.0
	for b := from; b < to; b++ {
		peak = max(peak, a.beat(&v, b))
	}
	return peak
}

// retune sets the lead to beat b's step of the arpeggio.
func (a *arrangement) retune(v *voices, b int) {
	v.lead.SetFreq(a.root*4*math.Pow(2, float64(a.arp[b%len(a.arp)])/12), a.rate)
}

// beat renders beat b straight into the track's 16-bit store, advancing
// v, and returns the beat's float64 peak.
func (a *arrangement) beat(v *voices, b int) float64 {
	rate, frames := a.rate, a.frames
	half, eighth, hat := frames/2, max(frames/2, 1), rate/200
	loud, level, kAmp := a.tr.LoudBars[b/4], 1.0, 0.9
	if !loud {
		// Even quiet bars keep a faint pulse so beat tracking stays possible.
		level, kAmp = 0.18, 0.25
	}
	a.retune(v, b)
	at := b * frames
	outL, outR := a.tr.L[at:at+frames], a.tr.R[at:at+frames]
	// peak is the max of |l|, |r| as bits with the sign cleared, which
	// order like the (finite) magnitudes: a branch-free integer max.
	peak, hi := uint64(0), 0 // hi counts frames into the current eighth
	for i := range outL {
		var l, r float64
		if i < len(a.kick) {
			k := a.kick[i] * kAmp
			l += k
			r += k
		}

		if loud {
			// Off-beat bass stab.
			bi := i - half
			b := v.bass.Next() * a.bassEnv.Level(bi, frames/3)
			l += b * 0.5 * level
			r += b * 0.5 * level

			// Lead arpeggio, slightly panned right.
			ld := v.lead.Next() * a.leadEnv.Level(i, frames/2)
			l += ld * 0.18 * level
			r += ld * 0.26 * level

			// Hats: short noise bursts on eighth notes.
			if hi < hat {
				h := v.rng.NormFloat64() * 0.12 * level *
					(1 - float64(hi)/float64(max(hat, 1)))
				l += h
				r += h * 0.8
			}
		} else {
			// Quiet section: keep the oscillators running so their phase
			// advances consistently, but render only a faint pad.
			b := v.bass.Next()
			ld := v.lead.Next()
			pad := (b*0.3 + ld*0.1) * 0.12
			l += pad
			r += pad
		}
		if hi++; hi == eighth {
			hi = 0
		}

		peak = max(peak, math.Float64bits(l)&^(1<<63), math.Float64bits(r)&^(1<<63))
		outL[i], outR[i] = audio.PCM16(l/headroom), audio.PCM16(r/headroom)
	}
	return math.Float64frombits(peak)
}

// skip advances v over beat b as beat does, rendering nothing: the same
// retune, the same phase steps, and in a loud beat as many hat draws,
// min(hat, eighth) in each whole eighth plus the part eighth's share.
func (a *arrangement) skip(v *voices, b int) {
	a.retune(v, b)
	for i := 0; i < a.frames; i++ {
		v.bass.step()
		v.lead.step()
	}
	if a.tr.LoudBars[b/4] {
		eighth, hat := max(a.frames/2, 1), a.rate/200
		for n := a.frames/eighth*min(hat, eighth) + min(a.frames%eighth, hat); n > 0; n-- {
			v.rng.NormFloat64()
		}
	}
}

// StandardDeckTracks renders the four-deck test set used by the evaluation:
// four distinct tracks (different keys, seeds and tempi near 126 BPM), the
// "realistic input data (four decks with different audio tracks)" of the
// paper's conclusion.
func StandardDeckTracks(bars int) [4]*Track {
	if bars <= 0 {
		bars = 16
	}
	specs := [4]TrackSpec{
		{Name: "deck-a", BPM: 126, Bars: bars, Seed: 0xA11CE, Key: 0},
		{Name: "deck-b", BPM: 128, Bars: bars, Seed: 0xB0B42, Key: 5},
		{Name: "deck-c", BPM: 124, Bars: bars, Seed: 0xC4A7, Key: -4},
		{Name: "deck-d", BPM: 127, Bars: bars, Seed: 0xD06E, Key: 7},
	}
	var out [4]*Track
	for i, s := range specs {
		out[i] = GenerateTrack(s)
	}
	return out
}

// Sine renders a pure sine test buffer (useful in DSP unit tests).
func SineBuffer(freq float64, n, hz int) audio.Buffer {
	b := audio.NewBuffer(n)
	for i := range b {
		b[i] = math.Sin(2 * math.Pi * freq * float64(i) / float64(hz))
	}
	return b
}

// WhiteNoise returns n samples of deterministic white noise with the given
// seed, scaled to amp.
func WhiteNoise(n int, amp float64, seed uint64) audio.Buffer {
	rng := NewRand(seed)
	b := audio.NewBuffer(n)
	for i := range b {
		b[i] = (2*rng.Float64() - 1) * amp
	}
	return b
}
