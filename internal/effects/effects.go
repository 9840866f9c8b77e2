// Package effects implements the DJ Star effect units: the FX1–FX4 blocks
// in each deck's effect chain (paper Fig. 3). Every effect processes a
// stereo packet in place, exposes a single macro parameter (the "knob" a DJ
// tweaks live) plus a dry/wet control, and is allocation-free per packet.
//
// The effect set mirrors what commercial DJ software ships: echo, flanger,
// phaser, reverb, bit crusher, gater, beatmasher and a filter sweep.
package effects

import (
	"math"

	"djstar/internal/audio"
	"djstar/internal/dsp"
)

// Effect is the interface implemented by all FX units.
type Effect interface {
	// Name returns a short identifier such as "echo".
	Name() string
	// SetMacro positions the unit's macro knob; v is clamped to [0, 1].
	SetMacro(v float64)
	// Macro returns the current macro knob position.
	Macro() float64
	// SetWet sets the dry/wet mix; w is clamped to [0, 1].
	SetWet(w float64)
	// Process transforms one stereo packet in place.
	Process(buf audio.Stereo)
	// Reset clears all internal state (delay lines, phases, envelopes).
	Reset()
}

// base provides the shared macro/wet plumbing for the effect units.
type base struct {
	name  string
	macro float64
	wet   float64
}

func (b *base) Name() string   { return b.name }
func (b *base) Macro() float64 { return b.macro }

func (b *base) SetMacro(v float64) { b.macro = audio.Clamp(v, 0, 1) }
func (b *base) SetWet(w float64)   { b.wet = audio.Clamp(w, 0, 1) }

// mix blends dry and wet samples by the unit's wet fraction.
func (b *base) mix(dry, wet float64) float64 {
	return dry*(1-b.wet) + wet*b.wet
}

// Echo is a tempo-style stereo delay with feedback. The macro knob morphs
// the delay time between 1/16 and 1/2 note at 126 BPM.
type Echo struct {
	base
	lineL, lineR *dsp.DelayLine[float32]
	feedback     float64
	rate         int
}

// NewEcho returns an echo for sampling rate hz. Its lines hold exactly
// what the macro's delay reaches back, as float32 (DESIGN.md §29);
// SetMacro grows them.
func NewEcho(hz int) *Echo {
	e := &Echo{
		base:     base{name: "echo", macro: 0.5, wet: 0.5},
		feedback: 0.45,
		rate:     hz,
	}
	e.lineL, e.lineR = dsp.NewDelayLine[float32](e.delaySamples()), dsp.NewDelayLine[float32](e.delaySamples())
	return e
}

// SetMacro implements Effect. A longer delay grows the lines, keeping
// what they hold; what they had already dropped reads 0.
func (e *Echo) SetMacro(v float64) {
	e.base.SetMacro(v)
	e.lineL.Grow(e.delaySamples())
	e.lineR.Grow(e.delaySamples())
}

// delaySamples converts the macro position to a delay length, at most
// 0.95 s.
func (e *Echo) delaySamples() int {
	beat := 60.0 / 126 * float64(e.rate)
	frac := 1.0/16 + e.macro*(1.0/2-1.0/16)
	return max(int(beat*4*frac), 1)
}

// Process implements Effect.
func (e *Echo) Process(buf audio.Stereo) {
	d := e.delaySamples()
	fb, dry, wet := e.feedback, 1-e.wet, e.wet
	l, r := buf.L, buf.R[:len(buf.L)]
	for len(l) > 0 {
		// The two lines share capacity, head and delay, so their runs are
		// the same length.
		tapL, headL := e.lineL.Span(d, len(l))
		tapR, headR := e.lineR.Span(d, len(tapL))
		m := len(tapL)
		tapR, headL, headR = tapR[:m], headL[:m], headR[:m]
		xl, xr := l[:m], r[:m]
		for i, tl := range tapL {
			wl, wr := float64(tl), float64(tapR[i])
			// Ping-pong: cross-feed the feedback path. Narrow settles
			// every sample it stores, so the lines need no Settle: the
			// input may be any float64, and one under float32's normal
			// range would otherwise go in as a subnormal.
			headL[i] = dsp.Narrow(xl[i] + wr*fb)
			headR[i] = dsp.Narrow(xr[i] + wl*fb)
			xl[i] = xl[i]*dry + wl*wet
			xr[i] = xr[i]*dry + wr*wet
		}
		l, r = l[m:], r[m:]
	}
}

// Reset implements Effect.
func (e *Echo) Reset() {
	e.lineL.Reset()
	e.lineR.Reset()
}

// Flanger sweeps a short modulated delay across the signal. The macro knob
// controls the LFO rate.
type Flanger struct {
	base
	lineL, lineR *dsp.DelayLine[float64]
	phase        float64
	rate         int
	depth        float64 // modulation depth in samples
	center       float64 // center delay in samples
	feedback     float64
}

// NewFlanger returns a flanger for sampling rate hz. Its lines hold what
// the taps reach, center+depth samples back and one more, with a slot to
// spare for a sine the rotor rounds past 1.
func NewFlanger(hz int) *Flanger {
	f := &Flanger{
		base:     base{name: "flanger", macro: 0.3, wet: 0.5},
		rate:     hz,
		depth:    float64(hz) * 0.002, // ±2 ms
		center:   float64(hz) * 0.005, // 5 ms
		feedback: 0.3,
	}
	n := int(f.center+f.depth) + 3
	f.lineL, f.lineR = dsp.NewDelayLine[float64](n), dsp.NewDelayLine[float64](n)
	return f
}

// Process implements Effect.
func (f *Flanger) Process(buf audio.Stereo) {
	lfoHz := 0.05 + f.macro*2 // 0.05..2.05 Hz
	inc := lfoHz / float64(f.rate)
	// The LFO is a rotor reseeded from the phase every packet; the phase
	// advances as it always has and stays the only state (DESIGN.md §31).
	rot := dsp.NewRotor(f.phase, inc)
	phase := f.phase
	for i := range buf.L {
		mod, _ := rot.Next()
		phase += inc
		if phase >= 1 {
			phase -= 1
		}
		dl := f.center + f.depth*mod
		dr := f.center + f.depth*-mod // inverted on the right for width
		wl := f.lineL.ReadFrac(dl)
		wr := f.lineR.ReadFrac(dr)
		// The taps are interpolated, so every sample written back is
		// settled (see DelayLine.Settle).
		f.lineL.Write(dsp.Settle(buf.L[i] + wl*f.feedback))
		f.lineR.Write(dsp.Settle(buf.R[i] + wr*f.feedback))
		buf.L[i] = f.mix(buf.L[i], wl)
		buf.R[i] = f.mix(buf.R[i], wr)
	}
	f.phase = phase
}

// Reset implements Effect.
func (f *Flanger) Reset() {
	f.lineL.Reset()
	f.lineR.Reset()
	f.phase = 0
}

// Phaser cascades four all-pass biquads whose center frequency is swept by
// an LFO. The macro knob controls sweep rate.
type Phaser struct {
	base
	stagesL [4]*dsp.Biquad
	stagesR [4]*dsp.Biquad
	phase   float64
	rate    int
}

// phaserSpread spaces the four stages' center frequencies: 1.6^i.
var phaserSpread = [4]float64{math.Pow(1.6, 0), math.Pow(1.6, 1), math.Pow(1.6, 2), math.Pow(1.6, 3)}

// NewPhaser returns a phaser for sampling rate hz.
func NewPhaser(hz int) *Phaser {
	p := &Phaser{base: base{name: "phaser", macro: 0.3, wet: 0.5}, rate: hz}
	for i := range p.stagesL {
		p.stagesL[i] = dsp.NewBiquad(dsp.AllPass, 800, 0.7, 0, hz)
		p.stagesR[i] = dsp.NewBiquad(dsp.AllPass, 800, 0.7, 0, hz)
	}
	return p
}

// Process implements Effect.
func (p *Phaser) Process(buf audio.Stereo) {
	lfoHz := 0.05 + p.macro*1.5
	// Retune once per packet: cheap enough and inaudible at 2.9 ms packets.
	mod := math.Sin(2 * math.Pi * p.phase)
	p.phase += lfoHz * float64(buf.Len()) / float64(p.rate)
	if p.phase >= 1 {
		p.phase -= math.Floor(p.phase)
	}
	center := 800 * math.Pow(2, mod*1.5) // sweep ~±1.5 octaves
	for i := range p.stagesL {
		p.stagesL[i].Configure(dsp.AllPass, center*phaserSpread[i], 0.7, 0, p.rate)
		p.stagesR[i].SetCoeffsFrom(p.stagesL[i])
	}
	// Eight sections advance per iteration, so their chains already
	// overlap and the loop is bound by the multipliers: a cascade kernel
	// with the state in locals measured no faster (DESIGN.md §17).
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

// Reset implements Effect.
func (p *Phaser) Reset() {
	for i := range p.stagesL {
		p.stagesL[i].Reset()
		p.stagesR[i].Reset()
	}
	p.phase = 0
}

// Reverb is a compact Schroeder reverberator: four parallel combs into two
// series all-pass diffusers per channel. The macro knob scales decay.
type Reverb struct {
	base
	combsL [4]*dsp.Comb
	combsR [4]*dsp.Comb
	apL    [2]*dsp.AllPassDelay
	apR    [2]*dsp.AllPassDelay
	in     audio.Stereo // one chunk of attenuated input feeding the comb bank
	acc    audio.Stereo // the comb bank's sum, then the diffused wet signal
}

// NewReverb returns a reverb for sampling rate hz.
func NewReverb(hz int) *Reverb {
	r := &Reverb{
		base: base{name: "reverb", macro: 0.5, wet: 0.3},
		in:   audio.NewStereo(audio.PacketSize),
		acc:  audio.NewStereo(audio.PacketSize),
	}
	// Mutually prime comb delays, classic Schroeder choices scaled to hz.
	combMs := [4]float64{29.7, 37.1, 41.1, 43.7}
	for i, ms := range combMs {
		d := int(ms / 1000 * float64(hz))
		r.combsL[i] = dsp.NewComb(d, 0.78, 0.2)
		r.combsR[i] = dsp.NewComb(d+23, 0.78, 0.2) // detuned right for width
	}
	apMs := [2]float64{5.0, 1.7}
	for i, ms := range apMs {
		d := int(ms / 1000 * float64(hz))
		r.apL[i] = dsp.NewAllPassDelay(d, 0.7)
		r.apR[i] = dsp.NewAllPassDelay(d+7, 0.7)
	}
	return r
}

// Process implements Effect. It works unit by unit over a chunk of the
// packet instead of sample by sample through all twelve units: each comb
// pair adds into the accumulator in the order the per-sample form summed
// the combs (so the float sum is the same), then the diffusers run over
// the sum.
func (r *Reverb) Process(buf audio.Stereo) {
	fb := 0.6 + r.macro*0.35 // decay control
	for i := range r.combsL {
		r.combsL[i].Feedback = fb
		r.combsR[i].Feedback = fb
	}
	// Input attenuation keeps the parallel comb bank's resonant gain near
	// unity (Freeverb does the same with a fixed 0.015 input gain).
	const inGain = 0.2
	dry, wet := 1-r.wet, r.wet
	for at := 0; at < buf.Len(); at += audio.PacketSize {
		m := min(audio.PacketSize, buf.Len()-at)
		l, rr := buf.L[at:at+m], buf.R[at:at+m]
		inL, inR := r.in.L[:m], r.in.R[:m]
		wl, wr := r.acc.L[:m], r.acc.R[:m]
		for i := range l {
			inL[i], inR[i] = l[i]*inGain, rr[i]*inGain
			wl[i], wr[i] = 0, 0
		}
		for c := range r.combsL {
			dsp.CombPairAdd(r.combsL[c], r.combsR[c], wl, wr, inL, inR)
		}
		for i := range wl {
			wl[i] *= 0.5
			wr[i] *= 0.5
		}
		for a := range r.apL {
			r.apL[a].Process(wl)
			r.apR[a].Process(wr)
		}
		for i := range l {
			l[i] = l[i]*dry + wl[i]*wet
			rr[i] = rr[i]*dry + wr[i]*wet
		}
	}
}

// Reset implements Effect.
func (r *Reverb) Reset() {
	for i := range r.combsL {
		r.combsL[i].Reset()
		r.combsR[i].Reset()
	}
	for i := range r.apL {
		r.apL[i].Reset()
		r.apR[i].Reset()
	}
}

// BitCrusher reduces bit depth and sample rate for a lo-fi effect, followed
// by a soft clip. The macro knob increases destruction.
type BitCrusher struct {
	base
	holdL, holdR float64
	counter      float64
}

// NewBitCrusher returns a bit crusher (rate independent).
func NewBitCrusher(int) *BitCrusher {
	return &BitCrusher{base: base{name: "bitcrusher", macro: 0.3, wet: 1}}
}

// Process implements Effect.
func (c *BitCrusher) Process(buf audio.Stereo) {
	bits := 16 - c.macro*13 // 16 .. 3 bits
	levels := math.Pow(2, bits)
	decim := 1 + c.macro*15 // keep every n-th sample
	for i := range buf.L {
		c.counter++
		if c.counter >= decim {
			c.counter -= decim
			c.holdL = math.Round(buf.L[i]*levels) / levels
			c.holdR = math.Round(buf.R[i]*levels) / levels
		}
		buf.L[i] = c.mix(buf.L[i], c.holdL)
		buf.R[i] = c.mix(buf.R[i], c.holdR)
	}
}

// Reset implements Effect.
func (c *BitCrusher) Reset() {
	c.holdL, c.holdR, c.counter = 0, 0, 0
}

// Gater rhythmically chops the signal with a smoothed square LFO. The macro
// knob selects the gate rate.
type Gater struct {
	base
	phase float64
	env   float64
	rate  int
}

// NewGater returns a gater for sampling rate hz.
func NewGater(hz int) *Gater {
	return &Gater{base: base{name: "gater", macro: 0.5, wet: 1}, rate: hz}
}

// Process implements Effect.
func (g *Gater) Process(buf audio.Stereo) {
	// 1..16 Hz gate.
	gateHz := 1 + g.macro*15
	inc := gateHz / float64(g.rate)
	const smooth = 0.995
	for i := range buf.L {
		g.phase += inc
		if g.phase >= 1 {
			g.phase -= 1
		}
		target := 0.0
		if g.phase < 0.5 {
			target = 1
		}
		g.env = target + (g.env-target)*smooth
		buf.L[i] = g.mix(buf.L[i], buf.L[i]*g.env)
		buf.R[i] = g.mix(buf.R[i], buf.R[i]*g.env)
	}
}

// Reset implements Effect.
func (g *Gater) Reset() { g.phase, g.env = 0, 0 }

// BeatMasher grabs a short loop of the incoming audio and stutters it,
// DJ-style. The macro knob selects the slice length.
type BeatMasher struct {
	base
	bufL, bufR []float32
	writePos   int
	readPos    int
	capturing  bool
	rate       int
}

// NewBeatMasher returns a beat masher for sampling rate hz. It holds the
// macro's slice, as float32 (DESIGN.md §29); SetMacro grows it.
func NewBeatMasher(hz int) *BeatMasher {
	m := &BeatMasher{
		base:      base{name: "beatmasher", macro: 0.4, wet: 1},
		capturing: true,
		rate:      hz,
	}
	m.bufL, m.bufR = make([]float32, m.sliceLen()), make([]float32, m.sliceLen())
	return m
}

// SetMacro implements Effect. A longer slice grows the capture, keeping
// what it holds; the new tail reads 0 until a capture reaches it.
func (m *BeatMasher) SetMacro(v float64) {
	m.base.SetMacro(v)
	if n := m.sliceLen(); n > len(m.bufL) {
		m.bufL = append(m.bufL, make([]float32, n-len(m.bufL))...)
		m.bufR = append(m.bufR, make([]float32, n-len(m.bufR))...)
	}
}

// sliceLen returns the active loop length in samples: 1/64 s up to 500 ms.
func (m *BeatMasher) sliceLen() int {
	minLen, maxLen := m.rate/64, m.rate/2
	return max(minLen+int(m.macro*float64(maxLen-minLen)), 1)
}

// Process implements Effect.
func (m *BeatMasher) Process(buf audio.Stereo) {
	n := m.sliceLen()
	for i := range buf.L {
		if m.capturing {
			m.bufL[m.writePos] = dsp.Narrow(buf.L[i])
			m.bufR[m.writePos] = dsp.Narrow(buf.R[i])
			m.writePos++
			if m.writePos >= n {
				m.capturing = false
				m.readPos = 0
			}
			// While capturing, pass dry through.
			continue
		}
		wl := float64(m.bufL[m.readPos])
		wr := float64(m.bufR[m.readPos])
		m.readPos++
		if m.readPos >= n {
			m.readPos = 0
		}
		buf.L[i] = m.mix(buf.L[i], wl)
		buf.R[i] = m.mix(buf.R[i], wr)
	}
}

// Reset implements Effect and re-arms the capture.
func (m *BeatMasher) Reset() {
	m.writePos, m.readPos = 0, 0
	m.capturing = true
	clear(m.bufL)
	clear(m.bufR)
}

// FilterSweep is the classic DJ filter: below 0.5 the macro knob low-passes,
// above 0.5 it high-passes, with a dead zone at noon.
type FilterSweep struct {
	base
	fL, fR *dsp.Biquad
	rate   int
	last   float64
}

// NewFilterSweep returns a filter sweep for sampling rate hz.
func NewFilterSweep(hz int) *FilterSweep {
	fs := &FilterSweep{
		base: base{name: "filtersweep", macro: 0.5, wet: 1},
		fL:   dsp.NewBiquad(AllKindPassThrough(), 1000, 0.9, 0, hz),
		fR:   dsp.NewBiquad(AllKindPassThrough(), 1000, 0.9, 0, hz),
		rate: hz,
		last: math.NaN(),
	}
	return fs
}

// AllKindPassThrough returns the filter kind used when the sweep sits in
// its center dead zone (an all-pass, i.e. audibly transparent).
func AllKindPassThrough() dsp.FilterKind { return dsp.AllPass }

// Process implements Effect.
func (fs *FilterSweep) Process(buf audio.Stereo) {
	const dead = 0.04
	m := fs.macro
	if m != fs.last {
		fs.last = m
		switch {
		case m < 0.5-dead:
			// Low-pass sweeping 80 Hz .. 18 kHz as knob approaches center.
			t := m / (0.5 - dead)
			freq := 80 * math.Pow(18000.0/80, t)
			fs.fL.Configure(dsp.LowPass, freq, 0.9, 0, fs.rate)
		case m > 0.5+dead:
			t := (m - (0.5 + dead)) / (0.5 - dead)
			freq := 30 * math.Pow(16000.0/30, t)
			fs.fL.Configure(dsp.HighPass, freq, 0.9, 0, fs.rate)
		default:
			fs.fL.Configure(dsp.AllPass, 1000, 0.9, 0, fs.rate)
		}
		fs.fR.SetCoeffsFrom(fs.fL)
	}
	dsp.ProcessPair(fs.fL, fs.fR, buf.L, buf.R, buf.L, buf.R)
}

// Reset implements Effect.
func (fs *FilterSweep) Reset() {
	fs.fL.Reset()
	fs.fR.Reset()
}

// Registry lists the available effect constructors by name, used by the
// graph builder and the examples to assemble FX chains.
var Registry = map[string]func(hz int) Effect{
	"echo":        func(hz int) Effect { return NewEcho(hz) },
	"flanger":     func(hz int) Effect { return NewFlanger(hz) },
	"phaser":      func(hz int) Effect { return NewPhaser(hz) },
	"reverb":      func(hz int) Effect { return NewReverb(hz) },
	"bitcrusher":  func(hz int) Effect { return NewBitCrusher(hz) },
	"gater":       func(hz int) Effect { return NewGater(hz) },
	"beatmasher":  func(hz int) Effect { return NewBeatMasher(hz) },
	"filtersweep": func(hz int) Effect { return NewFilterSweep(hz) },
	"autopan":     func(hz int) Effect { return NewAutoPan(hz) },
	"brake":       func(hz int) Effect { return NewBrake(hz) },
}

// StandardChain returns the default 4-unit chain (FX1..FX4) used by the
// paper-scale graph: echo, flanger, reverb, filter sweep. Deck index d
// rotates the assignment so the four decks carry different chains, like a
// real performance.
func StandardChain(d, hz int) [4]Effect {
	order := []string{"echo", "flanger", "reverb", "filtersweep",
		"phaser", "gater", "bitcrusher", "beatmasher"}
	var out [4]Effect
	for i := 0; i < 4; i++ {
		name := order[(d*2+i)%len(order)]
		out[i] = Registry[name](hz)
	}
	return out
}
