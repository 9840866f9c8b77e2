package synth

import (
	"fmt"
	"math"
	"testing"

	"djstar/internal/audio"
)

// The sequential reference for the parallel render. refGenerateTrack and
// refRenderBeat are GenerateTrack and renderBeat as they were when one
// goroutine rendered every beat into a float64 buffer and then stored it
// — moved here verbatim. The parallel render must reproduce them bit for
// bit at every worker count.

// refGenerateTrack renders a deterministic dance-style track: four-on-the-floor
// kick, off-beat bass, a simple lead arpeggio and hat noise, arranged into
// alternating loud and quiet two-bar groups.
func refGenerateTrack(spec TrackSpec) *Track {
	spec.defaults()
	rng := NewRand(spec.Seed)

	framesPerBeat := int(math.Round(60 / spec.BPM * float64(spec.Rate)))
	framesPerBar := 4 * framesPerBeat
	total := spec.Bars * framesPerBar

	tr := &Track{
		Name:         spec.Name,
		BPM:          spec.BPM,
		L:            make([]int16, total),
		R:            make([]int16, total),
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
	// as int16 against the fixed headroom, so no full-length float copy is
	// ever held and no sample is rounded twice. The float64 peak is kept,
	// and the gain carries the normalization to 0.95.
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
			refRenderBeat(beat, spec, level, loud, bass, lead, kickEnv, bassEnv, leadEnv, arp, bar*4+b, rng)
			peak = math.Max(peak, beat.Peak())
			at := bar*framesPerBar + b*framesPerBeat
			for i := range beat.L {
				tr.L[at+i], tr.R[at+i] = audio.PCM16(beat.L[i]/headroom), audio.PCM16(beat.R[i]/headroom)
			}
		}
	}
	if peak > 0 {
		tr.Gain = 0.95 / peak * headroom / 32767
	}
	return tr
}

// refRenderBeat renders one beat of the arrangement into buf, a beat long.
func refRenderBeat(buf audio.Stereo, spec TrackSpec, level float64,
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

// randomSpecs returns n seeded specs across the ranges the render's
// branches depend on: tempi and keys, bar counts whose beat counts no
// worker count in 2..9 always divides, and QuietEvery off, default and on.
// Their rates, 2 to 8 kHz, size a beat at a few thousand frames, which
// keeps 200 specs rendered ten times each quick.
func randomSpecs(n int) []TrackSpec {
	rng := NewRand(0xB17)
	specs := make([]TrackSpec, n)
	for i := range specs {
		specs[i] = TrackSpec{
			Name:       "random",
			BPM:        60 + 140*rng.Float64(),
			Key:        rng.Intn(25) - 12,
			Bars:       1 + rng.Intn(5),
			QuietEvery: rng.Intn(5) - 1,
			Rate:       2000 + rng.Intn(6000),
			Seed:       rng.Uint64(),
		}
	}
	return specs
}

// sameTrack fails t unless got holds want's samples, gain and loud bars
// bit for bit.
func sameTrack(t *testing.T, what string, got, want *Track) {
	t.Helper()
	if got.Len() != want.Len() || got.FramesPerBar != want.FramesPerBar ||
		math.Float64bits(got.Gain) != math.Float64bits(want.Gain) || len(got.LoudBars) != len(want.LoudBars) {
		t.Fatalf("%s: %d frames, %d per bar, gain %v, %d bars; want %d, %d, %v, %d", what,
			got.Len(), got.FramesPerBar, got.Gain, len(got.LoudBars), want.Len(), want.FramesPerBar, want.Gain, len(want.LoudBars))
	}
	for bar := range want.LoudBars {
		if got.LoudBars[bar] != want.LoudBars[bar] {
			t.Fatalf("%s: bar %d loud = %v, want %v", what, bar, got.LoudBars[bar], want.LoudBars[bar])
		}
	}
	for i := range want.L {
		if got.L[i] != want.L[i] || got.R[i] != want.R[i] {
			t.Fatalf("%s: frame %d = (%d, %d), want (%d, %d)", what, i, got.L[i], got.R[i], want.L[i], want.R[i])
		}
	}
}

// TestParallelRenderIsSequential holds the parallel render to the
// sequential reference, bit for bit, at every worker count from 1 to 9,
// over the four standard tracks and 200 seeded random specs. Under the
// race detector, which is there to check that the workers' writes are
// disjoint, one standard track and 20 random specs keep it to seconds.
func TestParallelRenderIsSequential(t *testing.T) {
	standard, random := standardSpecs, 200
	if raceEnabled {
		standard, random = standardSpecs[:1], 20
	}
	specs := append(append([]TrackSpec(nil), standard...), randomSpecs(random)...)
	for n, spec := range specs {
		want := refGenerateTrack(spec)
		for w := 1; w <= 9; w++ {
			sameTrack(t, fmt.Sprintf("spec %d %+v, %d workers", n, spec, w), generateTrack(spec, w), want)
		}
	}
}

// TestSkipAdvancesAsRender pins skip to beat: over the first k beats of a
// random spec, skipping leaves the oscillators' phase and increment and
// the noise state exactly where rendering leaves them.
func TestSkipAdvancesAsRender(t *testing.T) {
	rng := NewRand(0x5C1B)
	for n, spec := range randomSpecs(50) {
		a, start := newArrangement(spec)
		k := rng.Intn(4*len(a.tr.LoudBars) + 1)
		skipped, rendered := start, start
		for b := 0; b < k; b++ {
			a.skip(&skipped, b)
			a.beat(&rendered, b)
		}
		for _, v := range []struct {
			name      string
			got, want float64
		}{
			{"bass phase", skipped.bass.phase, rendered.bass.phase},
			{"bass inc", skipped.bass.inc, rendered.bass.inc},
			{"lead phase", skipped.lead.phase, rendered.lead.phase},
			{"lead inc", skipped.lead.inc, rendered.lead.inc},
		} {
			if math.Float64bits(v.got) != math.Float64bits(v.want) {
				t.Fatalf("spec %d %+v, %d beats: skipped %s %v, rendered %v", n, spec, k, v.name, v.got, v.want)
			}
		}
		if skipped.rng != rendered.rng {
			t.Fatalf("spec %d %+v, %d beats: skipped noise state %#x, rendered %#x", n, spec, k, skipped.rng.state, rendered.rng.state)
		}
	}
}
