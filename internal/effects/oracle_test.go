package effects

import (
	"fmt"
	"math"
	"testing"

	"djstar/internal/audio"
	"djstar/internal/dsp"
	"djstar/internal/dsp/dsptest"
	"djstar/internal/synth"
)

// The oracle for the effect units whose loops were restructured (echo,
// phaser, reverb, filter sweep). The ref* types are the units as they
// were — one sample at a time through every stage, one Configure per
// channel, float64 history — moved here verbatim and built on the
// per-sample dsp calls that still exist (Biquad.Configure/Process/
// ProcessSample, DelayLine.Read/Write on float64 lines). Each unit must
// match its reference on every sample, packet after packet, while macro
// and wet are being turned: bit for bit, except the echo, whose history is
// float32 and which is held to narrowBound.
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
	lineL, lineR *dsp.DelayLine[float64]
	feedback     float64
	rate         int
}

func newRefEcho(hz int) *refEcho {
	return &refEcho{refBase{0.5, 0.5}, dsp.NewDelayLine[float64](hz), dsp.NewDelayLine[float64](hz), 0.45, hz}
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
	line                  *dsp.DelayLine[float64]
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
	line  *dsp.DelayLine[float64]
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
		r.combsL[i] = &refComb{line: dsp.NewDelayLine[float64](d), delay: d, Feedback: 0.78, Damp: 0.2}
		r.combsR[i] = &refComb{line: dsp.NewDelayLine[float64](d + 23), delay: d + 23, Feedback: 0.78, Damp: 0.2}
	}
	apMs := [2]float64{5.0, 1.7}
	for i, ms := range apMs {
		d := int(ms / 1000 * float64(hz))
		r.apL[i] = &refAllPass{dsp.NewDelayLine[float64](d), d, 0.7}
		r.apR[i] = &refAllPass{dsp.NewDelayLine[float64](d + 7), d + 7, 0.7}
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
			at, pk := 0, peak(s)
			for p, n := range oracleLens() {
				if p%50 == 49 {
					macro, wet := rng.Float64(), rng.Float64()
					setMacro(fx, ref, macro)
					fx.SetWet(wet)
					knobs.macro, knobs.wet = macro, wet
				}
				tol := 0.0
				if u.name == "echo" {
					tol = narrowBound(pk, 0.45, knobs.wet)
				}
				got, want := audio.NewStereo(n), audio.NewStereo(n)
				got.CopyFrom(audio.Stereo{L: s.L[at : at+n], R: s.R[at : at+n]})
				want.CopyFrom(got)
				fx.Process(got)
				ref.Process(want)
				for i := 0; i < n; i++ {
					if math.Abs(got.L[i]-want.L[i]) > tol || math.Abs(got.R[i]-want.R[i]) > tol {
						t.Fatalf("%s on %s: packet %d (%d samples) sample %d = (%v, %v), want (%v, %v) within %g",
							u.name, name, p, n, i, got.L[i], got.R[i], want.L[i], want.R[i], tol)
					}
				}
				at += n
			}
		}
	}
}

// refFlanger is Flanger.Process as it was before its LFO became a rotor:
// one math.Sin per sample, moved here verbatim.
type refFlanger struct {
	refBase
	lineL, lineR *dsp.DelayLine[float64]
	phase        float64
	rate         int
	depth        float64 // modulation depth in samples
	center       float64 // center delay in samples
	feedback     float64
}

func newRefFlanger(hz int) *refFlanger {
	return &refFlanger{
		refBase:  refBase{0.3, 0.5},
		lineL:    dsp.NewDelayLine[float64](hz / 50),
		lineR:    dsp.NewDelayLine[float64](hz / 50),
		rate:     hz,
		depth:    float64(hz) * 0.002, // ±2 ms
		center:   float64(hz) * 0.005, // 5 ms
		feedback: 0.3,
	}
}

func (f *refFlanger) Process(buf audio.Stereo) {
	lfoHz := 0.05 + f.macro*2 // 0.05..2.05 Hz
	inc := lfoHz / float64(f.rate)
	for i := range buf.L {
		mod := math.Sin(2 * math.Pi * f.phase)
		f.phase += inc
		if f.phase >= 1 {
			f.phase -= 1
		}
		dl := f.center + f.depth*mod
		dr := f.center + f.depth*-mod // inverted on the right for width
		wl := f.lineL.ReadFrac(dl)
		wr := f.lineR.ReadFrac(dr)
		// The taps are interpolated, so every sample written back is
		// settled (see DelayLine.Settle); the loop is bound by Sin.
		f.lineL.Write(dsp.Settle(buf.L[i] + wl*f.feedback))
		f.lineR.Write(dsp.Settle(buf.R[i] + wr*f.feedback))
		buf.L[i] = f.mix(buf.L[i], wl)
		buf.R[i] = f.mix(buf.R[i], wr)
	}
}

// refAutoPan is AutoPan.Process as it was before its LFO became a rotor,
// moved here verbatim.
type refAutoPan struct {
	refBase
	phase float64
	rate  int
}

func (a *refAutoPan) Process(buf audio.Stereo) {
	lfoHz := 0.1 + a.macro*8 // 0.1..8.1 Hz
	inc := lfoHz / float64(a.rate)
	for i := range buf.L {
		pan := math.Sin(2 * math.Pi * a.phase) // -1..1
		a.phase += inc
		if a.phase >= 1 {
			a.phase -= 1
		}
		gl, gr := dsp.EqualPowerPan(pan)
		// Mono-ize the pan source so the sweep is audible on any input,
		// then spread with the constant-power gains.
		mid := 0.5 * (buf.L[i] + buf.R[i])
		buf.L[i] = a.mix(buf.L[i], mid*gl*math.Sqrt2)
		buf.R[i] = a.mix(buf.R[i], mid*gr*math.Sqrt2)
	}
}

// TestOracleLFOWithinTolerance runs the flanger and the auto-panner beside
// their per-sample-Sin references over 20000 packets of seeded noise at
// three LFO rates, then packets of 1, 7, 127 and 128 samples. The LFO
// phase is each unit's only oscillator state and advances by the same
// additions, so it must match bit for bit. The samples differ by the
// rotor's drift within a packet (under 2⁻⁴¹ of the LFO, DESIGN.md §31):
// in the flanger times the delay depth of 88 samples and the slope of the
// interpolated tap, carried round the 0.3 feedback loop; in the
// auto-panner through the pan law's gains. Both must stay within 2⁻³⁶
// absolute (worst measured on amd64: flanger 2⁻³⁹·⁷, autopan 2⁻⁴⁶·²).
func TestOracleLFOWithinTolerance(t *testing.T) {
	type processor interface{ Process(audio.Stereo) }
	units := []struct {
		name string
		make func(macro float64) (fx, ref processor, phases func() (float64, float64))
	}{
		{"flanger", func(macro float64) (processor, processor, func() (float64, float64)) {
			fx, ref := NewFlanger(audio.SampleRate), newRefFlanger(audio.SampleRate)
			fx.SetMacro(macro)
			ref.macro = macro
			return fx, ref, func() (float64, float64) { return fx.phase, ref.phase }
		}},
		{"autopan", func(macro float64) (processor, processor, func() (float64, float64)) {
			fx, ref := NewAutoPan(audio.SampleRate), &refAutoPan{refBase{macro, 1}, 0, audio.SampleRate}
			fx.SetMacro(macro)
			fx.SetWet(1)
			return fx, ref, func() (float64, float64) { return fx.phase, ref.phase }
		}},
	}
	lens := make([]int, 0, 20400)
	for i := 0; i < 20000; i++ {
		lens = append(lens, audio.PacketSize)
	}
	for i := 0; i < 100; i++ {
		lens = append(lens, 1, 7, 127, 128)
	}
	const tol = 0x1p-36
	for _, u := range units {
		worst := 0.0
		for _, macro := range []float64{0, 0.3, 1} {
			fx, ref, phases := u.make(macro)
			rng := synth.NewRand(uint64(11 + 10*macro))
			got, want := audio.NewStereo(audio.PacketSize), audio.NewStereo(audio.PacketSize)
			for p, n := range lens {
				g, w := audio.Stereo{L: got.L[:n], R: got.R[:n]}, audio.Stereo{L: want.L[:n], R: want.R[:n]}
				for i := 0; i < n; i++ {
					g.L[i], g.R[i] = rng.Float64()-0.5, rng.Float64()-0.5
				}
				w.CopyFrom(g)
				fx.Process(g)
				ref.Process(w)
				for i := 0; i < n; i++ {
					e := math.Max(math.Abs(g.L[i]-w.L[i]), math.Abs(g.R[i]-w.R[i]))
					worst = math.Max(worst, e)
					if e > tol {
						t.Fatalf("%s at macro %v: packet %d (%d samples) sample %d = (%v, %v), want (%v, %v) within %g",
							u.name, macro, p, n, i, g.L[i], g.R[i], w.L[i], w.R[i], tol)
					}
				}
				if ph, wph := phases(); ph != wph {
					t.Fatalf("%s at macro %v: packet %d leaves the LFO phase at %v, want %v", u.name, macro, p, ph, wph)
				}
			}
		}
		t.Logf("%s: worst sample error 2^%.1f", u.name, math.Log2(worst))
	}
}

// The echo and the beat masher hold only what their macro reaches, as
// float32, and grow on SetMacro (DESIGN.md §29). refEcho above and
// refBeatMasher below are built for the longest macro with float64
// history, as the units were; the units must stay within narrowBound of
// them on every sample.

// narrowBound is how far a unit that keeps its history in float32 may
// stray from its float64 reference, on input of peak amplitude pk, with a
// feedback loop of gain fb round that history (0 for none) and wet the
// share of it in the output. A store into float32 rounds by at most 2⁻²⁴
// of what it stores, or flushes what is under dsp's float32 floor
// (dsptest.Floor32). What the loop stores grows to pk/(1−fb), and each
// store's error is carried round the loop again, 1/(1−fb) in all. The mix
// adds float64 rounding, a few ulps of what is stored.
func narrowBound(pk, fb, wet float64) float64 {
	stored := pk / (1 - fb)
	return wet*(0x1p-24*stored+dsptest.Floor32)/(1-fb) + 0x1p-50*stored
}

// peak returns the largest magnitude in s.
func peak(s audio.Stereo) float64 {
	m := 0.0
	for i := range s.L {
		m = max(m, math.Abs(s.L[i]), math.Abs(s.R[i]))
	}
	return m
}

// setMacro turns fx's macro and its reference's. An echo whose lines grow
// holds nothing older than its old capacity, where the reference's 1 s
// lines still held older audio: the reference has that cleared at the
// raise (keepNewest), and is matched from there on.
func setMacro(fx Effect, ref any, v float64) {
	e, ok := fx.(*Echo)
	if !ok {
		fx.SetMacro(v)
		return
	}
	held := e.lineL.Capacity()
	e.SetMacro(v)
	if e.lineL.Capacity() > held {
		r := ref.(*refEcho)
		r.lineL, r.lineR = keepNewest(r.lineL, held), keepNewest(r.lineR, held)
	}
}

// refBeatMasher is BeatMasher as it was, its capture float64 and sized for
// the longest slice, rate/2, whatever the macro; moved here verbatim.
type refBeatMasher struct {
	refBase
	bufL, bufR []float64
	writePos   int
	readPos    int
	capturing  bool
	rate       int
}

func newRefBeatMasher(hz int) *refBeatMasher {
	n := hz / 2 // up to 500 ms slice
	return &refBeatMasher{
		refBase:   refBase{0.4, 1},
		bufL:      make([]float64, n),
		bufR:      make([]float64, n),
		capturing: true,
		rate:      hz,
	}
}

func (m *refBeatMasher) sliceLen() int {
	minLen := m.rate / 64
	n := minLen + int(m.macro*float64(len(m.bufL)-minLen))
	if n < 1 {
		n = 1
	}
	if n > len(m.bufL) {
		n = len(m.bufL)
	}
	return n
}

func (m *refBeatMasher) Process(buf audio.Stereo) {
	n := m.sliceLen()
	for i := range buf.L {
		if m.capturing {
			m.bufL[m.writePos] = buf.L[i]
			m.bufR[m.writePos] = buf.R[i]
			m.writePos++
			if m.writePos >= n {
				m.capturing = false
				m.readPos = 0
			}
			// While capturing, pass dry through.
			continue
		}
		wl := m.bufL[m.readPos]
		wr := m.bufR[m.readPos]
		m.readPos++
		if m.readPos >= n {
			m.readPos = 0
		}
		buf.L[i] = m.mix(buf.L[i], wl)
		buf.R[i] = m.mix(buf.R[i], wr)
	}
}

// resized is a sized-to-reach unit beside its worst-case reference.
type resized struct {
	fx    Effect
	ref   interface{ Process(audio.Stereo) }
	knobs *refBase
	span  func() int // the samples the unit holds: line capacity or slice
	fb    float64    // the gain of the loop round its history
	worst *float64   // the largest error over narrowBound seen so far
}

func newResized(name string) resized {
	if name == "echo" {
		fx, ref := NewEcho(audio.SampleRate), newRefEcho(audio.SampleRate)
		return resized{fx, ref, &ref.refBase, fx.lineL.Capacity, 0.45, new(float64)}
	}
	fx, ref := NewBeatMasher(audio.SampleRate), newRefBeatMasher(audio.SampleRate)
	return resized{fx, ref, &ref.refBase, fx.sliceLen, 0, new(float64)}
}

func (u resized) setMacro(v float64) {
	setMacro(u.fx, u.ref, v)
	u.knobs.macro = v
}

// feed runs n samples of s from at through the unit and its reference, in
// packets of standard and odd lengths, and fails on the first sample that
// strays past narrowBound. It returns where it stopped.
func (u resized) feed(t *testing.T, what string, s audio.Stereo, at, n int) int {
	t.Helper()
	tol := narrowBound(peak(s), u.fb, u.knobs.wet)
	lens := []int{128, 128, 128, 1, 7, 127, 129, 300}
	for p, end := 0, at+n; at < end; p++ {
		m := min(lens[p%len(lens)], end-at)
		got, want := audio.NewStereo(m), audio.NewStereo(m)
		got.CopyFrom(audio.Stereo{L: s.L[at : at+m], R: s.R[at : at+m]})
		want.CopyFrom(got)
		u.fx.Process(got)
		u.ref.Process(want)
		for i := 0; i < m; i++ {
			e := max(math.Abs(got.L[i]-want.L[i]), math.Abs(got.R[i]-want.R[i]))
			*u.worst = max(*u.worst, e/tol)
			if e > tol {
				t.Fatalf("%s: sample %d = (%v, %v), want (%v, %v) within %g",
					what, at+i, got.L[i], got.R[i], want.L[i], want.R[i], tol)
			}
		}
		at += m
	}
	return at
}

// TestOracleResizedUnits runs the echo and the beat masher at every macro
// from 0 to 1 in steps of 0.05, each past at least two wraps of its line
// or loop.
func TestOracleResizedUnits(t *testing.T) {
	worst := map[string]float64{}
	for stream, s := range oracleStreams() {
		for _, name := range []string{"echo", "beatmasher"} {
			for k := 0; k <= 20; k++ {
				u := newResized(name)
				macro := float64(k) / 20
				u.setMacro(macro)
				if len(s.L) < 2*u.span() {
					t.Fatalf("%s at macro %v holds %d samples: %d do not wrap it twice", name, macro, u.span(), len(s.L))
				}
				u.feed(t, fmt.Sprintf("%s on %s at macro %v", name, stream, macro), s, 0, len(s.L))
				worst[name] = max(worst[name], *u.worst)
			}
		}
	}
	for name, w := range worst {
		t.Logf("%s: worst error %.3f of narrowBound", name, w)
	}
}

// TestOracleResizedUnitsRaisedMidStream turns the macro mid-stream, then
// runs on past two wraps of the (grown) state. The echo's line holds
// exactly its delay: raised past it, the grown line reads 0 where the
// reference's 1 s line still held older audio, and setMacro cuts the
// reference to match; lowered and raised back, it reads what it held. The
// beat masher never held more than its capture, so it matches the plain
// reference whenever the raise comes, capturing or looping.
func TestOracleResizedUnitsRaisedMidStream(t *testing.T) {
	s := oracleStreams()["track"]
	for _, c := range []struct {
		name   string
		unit   string
		before int     // samples run before the raise
		lower  float64 // a macro run for 50 packets before the raise; 0 = none
		macro  float64
	}{
		{"echo before its line wraps", "echo", 100 * 128, 0, 1},
		{"echo after its line wraps", "echo", 400 * 128, 0, 1},
		{"echo lowered after its line wraps, then raised back", "echo", 400 * 128, 0.2, 0.5},
		{"echo lowered after its line wraps, then raised past it", "echo", 400 * 128, 0.2, 0.74},
		{"beatmasher while capturing", "beatmasher", 30 * 128, 0, 1},
		{"beatmasher while looping", "beatmasher", 100 * 128, 0, 1},
		{"beatmasher lowered while looping, then raised", "beatmasher", 100 * 128, 0.2, 1},
	} {
		u := newResized(c.unit)
		at := u.feed(t, c.name+", before the raise", s, 0, c.before)
		if c.lower > 0 {
			u.setMacro(c.lower)
			at = u.feed(t, c.name+", lowered", s, at, 50*128)
		}
		held := u.span()
		u.setMacro(c.macro)
		if u.span() < held {
			t.Fatalf("%s: %d samples held after the raise, %d before", c.name, u.span(), held)
		}
		if rest := len(s.L) - at; rest < 2*u.span() {
			t.Fatalf("%s: %d samples after the raise do not wrap %d twice", c.name, rest, u.span())
		}
		u.feed(t, c.name, s, at, len(s.L)-at)
	}
}

// keepNewest returns a line of line's capacity holding only its newest
// keep samples; every older slot reads 0. The copy starts its settle lanes
// afresh, which cannot change a sample of these streams: none is within
// sixty orders of 0.
func keepNewest(line *dsp.DelayLine[float64], keep int) *dsp.DelayLine[float64] {
	out := dsp.NewDelayLine[float64](line.Capacity())
	for k := keep; k >= 1; k-- {
		out.Write(line.Read(k))
	}
	return out
}
