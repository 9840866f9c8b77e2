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

// Next returns the next sample in [-1, 1].
func (o *Osc) Next() float64 {
	p := o.phase
	o.phase += o.inc
	if o.phase >= 1 {
		o.phase -= math.Floor(o.phase)
	}
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
	// L and R hold the full clip, one float32 per sample: lossless for a
	// 16- or 24-bit PCM source, within 2⁻²³ of the float64 render for a
	// generated one (DESIGN.md §29). Readers widen what they use to float64.
	L, R []float32
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
	// the loud/quiet alternation. 0 disables quiet sections.
	QuietEvery int
	// Key shifts the root note in semitones relative to A (55 Hz bass).
	Key int
}

func (s *TrackSpec) defaults() {
	if s.BPM == 0 {
		s.BPM = 126
	}
	if s.Bars == 0 {
		s.Bars = 16
	}
	if s.Rate == 0 {
		s.Rate = audio.SampleRate
	}
	if s.QuietEvery == 0 {
		s.QuietEvery = 2
	}
}

// GenerateTrack renders a deterministic dance-style track: four-on-the-floor
// kick, off-beat bass, a simple lead arpeggio and hat noise, arranged into
// alternating loud and quiet two-bar groups.
func GenerateTrack(spec TrackSpec) *Track {
	spec.defaults()
	rng := NewRand(spec.Seed)

	framesPerBeat := int(math.Round(60 / spec.BPM * float64(spec.Rate)))
	framesPerBar := 4 * framesPerBeat
	total := spec.Bars * framesPerBar

	tr := &Track{
		Name:         spec.Name,
		BPM:          spec.BPM,
		L:            make([]float32, total),
		R:            make([]float32, total),
		LoudBars:     make([]bool, spec.Bars),
		FramesPerBar: framesPerBar,
	}

	root := 55.0 * math.Pow(2, float64(spec.Key)/12)
	bass := NewOsc(Saw, root, spec.Rate)
	lead := NewOsc(Square, root*4, spec.Rate)
	kickEnv := ADSR{Attack: 8, Decay: spec.Rate / 8, Sustain: 0, Release: 64}
	bassEnv := ADSR{Attack: 32, Decay: spec.Rate / 6, Sustain: 0.3, Release: 256}
	leadEnv := ADSR{Attack: 64, Decay: spec.Rate / 10, Sustain: 0.2, Release: 512}

	// Arpeggio pattern in semitones over the root, regenerated per track.
	arp := make([]int, 8)
	scale := []int{0, 3, 5, 7, 10, 12}
	for i := range arp {
		arp[i] = scale[rng.Intn(len(scale))]
	}

	// Each beat is rendered in float64 into one reusable buffer and stored
	// as float32. The float64 peak is kept, so scaling the stored samples
	// once at the end normalizes the clip to 0.95 as the float64 render
	// would, with no full-length float64 copy ever held.
	beat, peak := audio.NewStereo(framesPerBeat), 0.0
	for bar := 0; bar < spec.Bars; bar++ {
		loud := true
		if spec.QuietEvery > 0 && (bar/2)%spec.QuietEvery == spec.QuietEvery-1 {
			loud = false
		}
		tr.LoudBars[bar] = loud
		level := 1.0
		if !loud {
			level = 0.18
		}
		for b := 0; b < 4; b++ {
			renderBeat(beat, spec, level, loud, bass, lead, kickEnv, bassEnv, leadEnv, arp, bar*4+b, rng)
			peak = math.Max(peak, beat.Peak())
			at := bar*framesPerBar + b*framesPerBeat
			for i := range beat.L {
				tr.L[at+i], tr.R[at+i] = float32(beat.L[i]), float32(beat.R[i])
			}
		}
	}
	if peak > 0 {
		g := 0.95 / peak
		for i := range tr.L {
			tr.L[i], tr.R[i] = float32(float64(tr.L[i])*g), float32(float64(tr.R[i])*g)
		}
	}
	return tr
}

// renderBeat renders one beat of the arrangement into buf, a beat long.
func renderBeat(buf audio.Stereo, spec TrackSpec, level float64,
	loud bool, bass, lead *Osc, kickEnv, bassEnv, leadEnv ADSR,
	arp []int, beatIndex int, rng *Rand) {

	rate, frames := spec.Rate, buf.Len()
	half := frames / 2
	root := 55.0 * math.Pow(2, float64(spec.Key)/12)
	leadStep := arp[beatIndex%len(arp)]
	lead.SetFreq(root*4*math.Pow(2, float64(leadStep)/12), rate)

	for i := 0; i < frames; i++ {
		var l, r float64

		// Kick: pitch-swept sine on the beat, always present (even quiet
		// bars keep a faint pulse so beat tracking stays possible). The
		// sweep is tuned to the track key so the kick reinforces the root.
		// Past the envelope's end the kick would be ±0, and l and r start
		// at +0, so skipping it there leaves every bit as it was.
		if env := kickEnv.Level(i, frames/4); env != 0 {
			kt := float64(i) / float64(rate)
			kick := math.Sin(2*math.Pi*(root+90*math.Exp(-kt*30))*kt) * env
			kAmp := 0.9 * level
			if !loud {
				kAmp = 0.25
			}
			l += kick * kAmp
			r += kick * kAmp
		}

		if loud {
			// Off-beat bass stab.
			bi := i - half
			b := bass.Next() * bassEnv.Level(bi, frames/3)
			l += b * 0.5 * level
			r += b * 0.5 * level

			// Lead arpeggio, slightly panned right.
			ld := lead.Next() * leadEnv.Level(i, frames/2)
			l += ld * 0.18 * level
			r += ld * 0.26 * level

			// Hats: short noise bursts on eighth notes.
			eighth := frames / 2
			hi := i % max(eighth, 1)
			if hi < rate/200 {
				h := rng.NormFloat64() * 0.12 * level *
					(1 - float64(hi)/float64(max(rate/200, 1)))
				l += h
				r += h * 0.8
			}
		} else {
			// Quiet section: keep the oscillators running so their phase
			// advances consistently, but render only a faint pad.
			b := bass.Next()
			ld := lead.Next()
			pad := (b*0.3 + ld*0.1) * 0.12
			l += pad
			r += pad
		}

		buf.L[i], buf.R[i] = l, r
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

// Impulse returns a unit impulse buffer of length n.
func Impulse(n int) audio.Buffer {
	b := audio.NewBuffer(n)
	if n > 0 {
		b[0] = 1
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
