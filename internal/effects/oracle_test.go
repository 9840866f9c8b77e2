package effects

import (
	"math"
	"testing"

	"djstar/internal/audio"
	"djstar/internal/dsp"
	"djstar/internal/synth"
)

// The bit-exactness oracle for the effect units whose loops were
// restructured (echo, phaser, reverb, filter sweep). The ref* types are
// the units as they were — one sample at a time through every stage, one
// Configure per channel — moved here verbatim and built on the per-sample
// dsp calls that still exist (Biquad.Configure/Process/ProcessSample,
// DelayLine.Read/Write). Each unit must match its reference on every
// sample, packet after packet, while macro and wet are being turned.
//
// Each reference ends its packet (the reverb: each 128-sample chunk) with
// the settle step its unit ends with — dsp.Settle on the scalar states,
// DelayLine.Settle on the echo's and the diffusers' lines; a comb settles
// what it writes back, sample by sample — and nothing else of the
// restructured code.

type refBase struct{ macro, wet float64 }

func (b *refBase) mix(dry, wet float64) float64 { return dry*(1-b.wet) + wet*b.wet }

type refEcho struct {
	refBase
	lineL, lineR *dsp.DelayLine
	feedback     float64
	rate         int
}

func newRefEcho(hz int) *refEcho {
	return &refEcho{refBase{0.5, 0.5}, dsp.NewDelayLine(hz), dsp.NewDelayLine(hz), 0.45, hz}
}

func (e *refEcho) delaySamples() int {
	beat := 60.0 / 126 * float64(e.rate)
	frac := 1.0/16 + e.macro*(1.0/2-1.0/16)
	d := int(beat * 4 * frac)
	if d < 1 {
		d = 1
	}
	if d > e.lineL.Capacity() {
		d = e.lineL.Capacity()
	}
	return d
}

func (e *refEcho) Process(buf audio.Stereo) {
	d := e.delaySamples()
	for i := range buf.L {
		wl := e.lineL.Read(d)
		wr := e.lineR.Read(d)
		// Ping-pong: cross-feed the feedback path.
		e.lineL.Write(buf.L[i] + wr*e.feedback)
		e.lineR.Write(buf.R[i] + wl*e.feedback)
		buf.L[i] = e.mix(buf.L[i], wl)
		buf.R[i] = e.mix(buf.R[i], wr)
	}
	e.lineL.Settle(buf.Len(), d)
	e.lineR.Settle(buf.Len(), d)
}

type refPhaser struct {
	refBase
	stagesL [4]*dsp.Biquad
	stagesR [4]*dsp.Biquad
	phase   float64
	rate    int
}

func newRefPhaser(hz int) *refPhaser {
	p := &refPhaser{refBase: refBase{0.3, 0.5}, rate: hz}
	for i := range p.stagesL {
		p.stagesL[i] = dsp.NewBiquad(dsp.AllPass, 800, 0.7, 0, hz)
		p.stagesR[i] = dsp.NewBiquad(dsp.AllPass, 800, 0.7, 0, hz)
	}
	return p
}

func (p *refPhaser) Process(buf audio.Stereo) {
	lfoHz := 0.05 + p.macro*1.5
	// Retune once per packet: cheap enough and inaudible at 2.9 ms packets.
	mod := math.Sin(2 * math.Pi * p.phase)
	p.phase += lfoHz * float64(buf.Len()) / float64(p.rate)
	if p.phase >= 1 {
		p.phase -= math.Floor(p.phase)
	}
	center := 800 * math.Pow(2, mod*1.5) // sweep ~±1.5 octaves
	for i := range p.stagesL {
		f := center * math.Pow(1.6, float64(i))
		p.stagesL[i].Configure(dsp.AllPass, f, 0.7, 0, p.rate)
		p.stagesR[i].Configure(dsp.AllPass, f, 0.7, 0, p.rate)
	}
	for i := range buf.L {
		wl, wr := buf.L[i], buf.R[i]
		for s := range p.stagesL {
			wl = p.stagesL[s].ProcessSample(wl)
			wr = p.stagesR[s].ProcessSample(wr)
		}
		buf.L[i] = p.mix(buf.L[i], wl)
		buf.R[i] = p.mix(buf.R[i], wr)
	}
	for s := range p.stagesL {
		p.stagesL[s].Settle()
		p.stagesR[s].Settle()
	}
}

// refComb and refAllPass are dsp.Comb and dsp.AllPassDelay with their
// former ProcessSample.
type refComb struct {
	line                  *dsp.DelayLine
	delay                 int
	Feedback, Damp, state float64
}

func (c *refComb) ProcessSample(x float64) float64 {
	out := c.line.Read(c.delay)
	c.state = out*(1-c.Damp) + c.state*c.Damp
	c.line.Write(dsp.Settle(x + c.state*c.Feedback))
	return out
}

type refAllPass struct {
	line  *dsp.DelayLine
	delay int
	Gain  float64
}

func (a *refAllPass) ProcessSample(x float64) float64 {
	delayed := a.line.Read(a.delay)
	y := -a.Gain*x + delayed
	a.line.Write(x + a.Gain*y)
	return y
}

type refReverb struct {
	refBase
	combsL [4]*refComb
	combsR [4]*refComb
	apL    [2]*refAllPass
	apR    [2]*refAllPass
}

func newRefReverb(hz int) *refReverb {
	r := &refReverb{refBase: refBase{0.5, 0.3}}
	combMs := [4]float64{29.7, 37.1, 41.1, 43.7}
	for i, ms := range combMs {
		d := int(ms / 1000 * float64(hz))
		r.combsL[i] = &refComb{line: dsp.NewDelayLine(d), delay: d, Feedback: 0.78, Damp: 0.2}
		r.combsR[i] = &refComb{line: dsp.NewDelayLine(d + 23), delay: d + 23, Feedback: 0.78, Damp: 0.2}
	}
	apMs := [2]float64{5.0, 1.7}
	for i, ms := range apMs {
		d := int(ms / 1000 * float64(hz))
		r.apL[i] = &refAllPass{dsp.NewDelayLine(d), d, 0.7}
		r.apR[i] = &refAllPass{dsp.NewDelayLine(d + 7), d + 7, 0.7}
	}
	return r
}

func (r *refReverb) Process(buf audio.Stereo) {
	fb := 0.6 + r.macro*0.35 // decay control
	for i := range r.combsL {
		r.combsL[i].Feedback = fb
		r.combsR[i].Feedback = fb
	}
	const inGain = 0.2
	for i := range buf.L {
		inL, inR := buf.L[i], buf.R[i]
		var wl, wr float64
		for c := range r.combsL {
			wl += r.combsL[c].ProcessSample(inL * inGain)
			wr += r.combsR[c].ProcessSample(inR * inGain)
		}
		wl *= 0.5
		wr *= 0.5
		for a := range r.apL {
			wl = r.apL[a].ProcessSample(wl)
			wr = r.apR[a].ProcessSample(wr)
		}
		buf.L[i] = r.mix(inL, wl)
		buf.R[i] = r.mix(inR, wr)
		if m := i%audio.PacketSize + 1; m == audio.PacketSize || i == buf.Len()-1 {
			r.settle(m)
		}
	}
}

// settle ends a chunk of m samples.
func (r *refReverb) settle(m int) {
	for c := range r.combsL {
		for _, comb := range []*refComb{r.combsL[c], r.combsR[c]} {
			comb.state = dsp.Settle(comb.state)
		}
	}
	for a := range r.apL {
		r.apL[a].line.Settle(m, r.apL[a].delay)
		r.apR[a].line.Settle(m, r.apR[a].delay)
	}
}

type refFilterSweep struct {
	refBase
	fL, fR *dsp.Biquad
	rate   int
	last   float64
}

func newRefFilterSweep(hz int) *refFilterSweep {
	return &refFilterSweep{
		refBase: refBase{0.5, 1},
		fL:      dsp.NewBiquad(dsp.AllPass, 1000, 0.9, 0, hz),
		fR:      dsp.NewBiquad(dsp.AllPass, 1000, 0.9, 0, hz),
		rate:    hz,
		last:    math.NaN(),
	}
}

func (fs *refFilterSweep) Process(buf audio.Stereo) {
	const dead = 0.04
	m := fs.macro
	if m != fs.last {
		fs.last = m
		switch {
		case m < 0.5-dead:
			t := m / (0.5 - dead)
			freq := 80 * math.Pow(18000.0/80, t)
			fs.fL.Configure(dsp.LowPass, freq, 0.9, 0, fs.rate)
			fs.fR.Configure(dsp.LowPass, freq, 0.9, 0, fs.rate)
		case m > 0.5+dead:
			t := (m - (0.5 + dead)) / (0.5 - dead)
			freq := 30 * math.Pow(16000.0/30, t)
			fs.fL.Configure(dsp.HighPass, freq, 0.9, 0, fs.rate)
			fs.fR.Configure(dsp.HighPass, freq, 0.9, 0, fs.rate)
		default:
			fs.fL.Configure(dsp.AllPass, 1000, 0.9, 0, fs.rate)
			fs.fR.Configure(dsp.AllPass, 1000, 0.9, 0, fs.rate)
		}
	}
	fs.fL.Process(buf.L)
	fs.fR.Process(buf.R)
}

// oracleLens is the packet schedule: 2000 standard packets, then odd
// lengths, two of them longer than the units' 128-sample work chunk.
func oracleLens() []int {
	lens := make([]int, 0, 2600)
	for i := 0; i < 2000; i++ {
		lens = append(lens, 128)
	}
	for i := 0; i < 100; i++ {
		lens = append(lens, 1, 7, 127, 128, 129, 300)
	}
	return lens
}

// oracleStreams returns seeded noise and one synthetic deck track, each
// long enough for oracleLens.
func oracleStreams() map[string]audio.Stereo {
	total := 0
	for _, n := range oracleLens() {
		total += n
	}
	track := synth.StandardDeckTracks(4)[1]
	looped := audio.NewStereo(total)
	for i := range looped.L {
		looped.L[i], looped.R[i] = float64(track.L[i%track.Len()]), float64(track.R[i%track.Len()])
	}
	return map[string]audio.Stereo{
		"noise": {L: synth.WhiteNoise(total, 0.5, 21), R: synth.WhiteNoise(total, 0.5, 22)},
		"track": looped,
	}
}

// TestOracleRestructuredEffects runs each unit beside its reference. The
// knobs move every 50 packets so the retune paths (echo delay, sweep
// Configure, reverb decay) are part of what is compared.
func TestOracleRestructuredEffects(t *testing.T) {
	type processor interface{ Process(audio.Stereo) }
	type unit struct {
		name string
		make func() (fx Effect, ref processor, knobs *refBase)
	}
	units := []unit{
		{"echo", func() (Effect, processor, *refBase) {
			r := newRefEcho(audio.SampleRate)
			return NewEcho(audio.SampleRate), r, &r.refBase
		}},
		{"phaser", func() (Effect, processor, *refBase) {
			r := newRefPhaser(audio.SampleRate)
			return NewPhaser(audio.SampleRate), r, &r.refBase
		}},
		{"reverb", func() (Effect, processor, *refBase) {
			r := newRefReverb(audio.SampleRate)
			return NewReverb(audio.SampleRate), r, &r.refBase
		}},
		{"filtersweep", func() (Effect, processor, *refBase) {
			r := newRefFilterSweep(audio.SampleRate)
			return NewFilterSweep(audio.SampleRate), r, &r.refBase
		}},
	}
	streams := oracleStreams()
	for _, u := range units {
		for name, s := range streams {
			fx, ref, knobs := u.make()
			rng := synth.NewRand(3)
			at := 0
			for p, n := range oracleLens() {
				if p%50 == 49 {
					macro, wet := rng.Float64(), rng.Float64()
					fx.SetMacro(macro)
					fx.SetWet(wet)
					knobs.macro, knobs.wet = macro, wet
				}
				got, want := audio.NewStereo(n), audio.NewStereo(n)
				got.CopyFrom(audio.Stereo{L: s.L[at : at+n], R: s.R[at : at+n]})
				want.CopyFrom(got)
				fx.Process(got)
				ref.Process(want)
				for i := 0; i < n; i++ {
					if got.L[i] != want.L[i] || got.R[i] != want.R[i] {
						t.Fatalf("%s on %s: packet %d (%d samples) sample %d = (%v, %v), want (%v, %v)",
							u.name, name, p, n, i, got.L[i], got.R[i], want.L[i], want.R[i])
					}
				}
				at += n
			}
		}
	}
}
