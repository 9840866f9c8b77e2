package synth

import (
	"math"
	"runtime"
	"testing"

	"djstar/internal/audio"
)

// The fidelity oracle for the 16-bit track store. floatGenerateTrack,
// floatRenderBeat and floatNormalize are GenerateTrack, renderBeat and
// normalize as they were when a track held its clip as float64 — moved
// here verbatim, writing a floatTrack. Every stored sample's value q·Gain
// must lie within half a step, ½·Gain, of the reference, plus the few
// ulps of the division by the headroom and of the product: −91.4 dBFS or
// less for the standard tracks, which use 55 % of the 16-bit range.

type floatTrack struct {
	Name         string
	BPM          float64
	Audio        audio.Stereo
	LoudBars     []bool
	FramesPerBar int
}

func floatGenerateTrack(spec TrackSpec) *floatTrack {
	spec.defaults()
	rng := NewRand(spec.Seed)

	framesPerBeat := int(math.Round(60 / spec.BPM * float64(spec.Rate)))
	framesPerBar := 4 * framesPerBeat
	total := spec.Bars * framesPerBar

	tr := &floatTrack{
		Name:         spec.Name,
		BPM:          spec.BPM,
		Audio:        audio.NewStereo(total),
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
		barStart := bar * framesPerBar
		for beat := 0; beat < 4; beat++ {
			beatStart := barStart + beat*framesPerBeat
			floatRenderBeat(tr, spec, beatStart, framesPerBeat, level, loud,
				bass, lead, kickEnv, bassEnv, leadEnv, arp, bar*4+beat, rng)
		}
	}
	floatNormalize(tr.Audio, 0.95)
	return tr
}

func floatRenderBeat(tr *floatTrack, spec TrackSpec, start, frames int, level float64,
	loud bool, bass, lead *Osc, kickEnv, bassEnv, leadEnv ADSR,
	arp []int, beatIndex int, rng *Rand) {

	rate := spec.Rate
	half := frames / 2
	root := 55.0 * math.Pow(2, float64(spec.Key)/12)
	leadStep := arp[beatIndex%len(arp)]
	lead.SetFreq(root*4*math.Pow(2, float64(leadStep)/12), rate)

	for i := 0; i < frames; i++ {
		idx := start + i
		if idx >= tr.Audio.Len() {
			return
		}
		var l, r float64

		// Kick: pitch-swept sine on the beat, always present (even quiet
		// bars keep a faint pulse so beat tracking stays possible). The
		// sweep is tuned to the track key so the kick reinforces the root.
		kt := float64(i) / float64(rate)
		kick := math.Sin(2*math.Pi*(root+90*math.Exp(-kt*30))*kt) * kickEnv.Level(i, frames/4)
		kAmp := 0.9 * level
		if !loud {
			kAmp = 0.25
		}
		l += kick * kAmp
		r += kick * kAmp

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

		tr.Audio.L[idx] += l
		tr.Audio.R[idx] += r
	}
}

func floatNormalize(s audio.Stereo, target float64) {
	p := s.Peak()
	if p <= 0 {
		return
	}
	s.Scale(target / p)
}

// standardSpecs are StandardDeckTracks' four specs at the benchmark's 16
// bars.
var standardSpecs = []TrackSpec{
	{Name: "deck-a", BPM: 126, Bars: 16, Seed: 0xA11CE, Key: 0},
	{Name: "deck-b", BPM: 128, Bars: 16, Seed: 0xB0B42, Key: 5},
	{Name: "deck-c", BPM: 124, Bars: 16, Seed: 0xC4A7, Key: -4},
	{Name: "deck-d", BPM: 127, Bars: 16, Seed: 0xD06E, Key: 7},
}

func TestOracleTrackWithinPCM16Tolerance(t *testing.T) {
	for _, spec := range standardSpecs {
		got, ref := GenerateTrack(spec), floatGenerateTrack(spec)
		if got.Len() != ref.Audio.Len() || got.FramesPerBar != ref.FramesPerBar {
			t.Fatalf("%s: %d frames, %d per bar; want %d, %d", spec.Name, got.Len(), got.FramesPerBar, ref.Audio.Len(), ref.FramesPerBar)
		}
		// Half a step, and 8 ulps of the 0.95 peak for the arithmetic.
		tol := got.Gain/2 + 8*math.Ldexp(1, -53)
		worst := 0.0
		for _, ch := range []struct {
			got  []int16
			want []float64
		}{{got.L, ref.Audio.L}, {got.R, ref.Audio.R}} {
			for j, want := range ch.want {
				v := float64(ch.got[j]) * got.Gain
				d := math.Abs(v - want)
				if d > tol {
					t.Fatalf("%s: frame %d = %d × %g = %v, float64 render %v: off by %g, more than half a step (%g)",
						spec.Name, j, ch.got[j], got.Gain, v, want, d, got.Gain/2)
				}
				worst = math.Max(worst, d)
			}
		}
		t.Logf("%s: gain %.4g, worst error %.3g (%.1f dBFS), %.3f of a step",
			spec.Name, got.Gain, worst, 20*math.Log10(worst), worst/got.Gain)
	}
}

// TestGeneratedTracksNeverClamp holds the headroom to its claim: no sample
// of the four standard tracks or of 200 seeded random specs reaches
// PCM16's clamp, so no clip is distorted by its store.
func TestGeneratedTracksNeverClamp(t *testing.T) {
	specs := append([]TrackSpec(nil), standardSpecs...)
	rng := NewRand(0x5EED)
	for i := 0; i < 200; i++ {
		specs = append(specs, TrackSpec{
			Name: "random",
			Key:  rng.Intn(25) - 12,
			BPM:  60 + 140*rng.Float64(),
			Bars: 1 + rng.Intn(4),
			Seed: rng.Uint64(),
		})
	}
	most := 0
	for _, spec := range specs {
		tr := GenerateTrack(spec)
		for _, ch := range [][]int16{tr.L, tr.R} {
			for j, q := range ch {
				a := max(int(q), -int(q))
				if a >= 32767 {
					t.Fatalf("%+v: frame %d = %d, at the clamp", spec, j, q)
				}
				most = max(most, a)
			}
		}
	}
	t.Logf("largest |q| over %d specs: %d (%.1f %% of the range)", len(specs), most, 100*float64(most)/32767)
}

// TestGenerateTrackAllocatesOnlyItsStore holds the render to the 16-bit
// clip it returns: at most 1.1 × 4 bytes per frame, where a float32 clip
// alone is 8 and a float64 beat buffer per worker would add more than
// the tenth.
func TestGenerateTrackAllocatesOnlyItsStore(t *testing.T) {
	spec := TrackSpec{Name: "x", Bars: 16, Seed: 5}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tr := GenerateTrack(spec)
	runtime.ReadMemStats(&after)
	perFrame := float64(after.TotalAlloc-before.TotalAlloc) / float64(tr.Len())
	if perFrame > 1.1*4 {
		t.Fatalf("GenerateTrack allocated %.2f bytes per frame, want at most %.2f", perFrame, 1.1*4)
	}
	t.Logf("%.2f bytes per frame", perFrame)
}
