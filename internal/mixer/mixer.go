// Package mixer implements the DJ Star mixer and master section: channel
// strips (filter + EQ + fader + cue switch), the crossfader, the master
// mix, the cue/monitor bus and the record path (Fig. 3's right half). The
// audio-graph nodes for ChannelA..D, Mixer, MasterBuffer, CueBuffer,
// MonitorBuffer, AudioOut1 and RecordBuffer are thin wrappers over the
// types here.
package mixer

import (
	"fmt"

	"djstar/internal/audio"
	"djstar/internal/dsp"
)

// CrossfadeSide assigns a channel to one side of the crossfader.
type CrossfadeSide int

const (
	// CrossfadeThru bypasses the crossfader (center channels, samplers).
	CrossfadeThru CrossfadeSide = iota
	// CrossfadeA routes the channel through the A side.
	CrossfadeA
	// CrossfadeB routes the channel through the B side.
	CrossfadeB
)

// ChannelStrip processes one deck's post-FX signal: a sweepable filter,
// three-band EQ, smoothed channel fader, cue switch and crossfader
// assignment.
type ChannelStrip struct {
	rate int

	filterL, filterR *dsp.Biquad
	filterOn         bool
	eqL, eqR         *dsp.ThreeBandEQ
	gainL, gainR     *dsp.SmoothedGain
	fader            float64
	cue              bool
	side             CrossfadeSide
}

// NewChannelStrip returns a strip with a flat EQ, open fader and no cue.
// The name labels the strip at its call site only; the strip keeps none.
func NewChannelStrip(name string, rate int) *ChannelStrip {
	return &ChannelStrip{
		rate:    rate,
		filterL: dsp.NewBiquad(dsp.AllPass, 1000, 0.9, 0, rate),
		filterR: dsp.NewBiquad(dsp.AllPass, 1000, 0.9, 0, rate),
		eqL:     dsp.NewThreeBandEQ(rate),
		eqR:     dsp.NewThreeBandEQ(rate),
		gainL:   dsp.NewSmoothedGain(1),
		gainR:   dsp.NewSmoothedGain(1),
		fader:   1,
	}
}

// SetFilter configures the strip filter; kind AllPass with on=false
// bypasses it.
func (c *ChannelStrip) SetFilter(kind dsp.FilterKind, freq, q float64, on bool) {
	c.filterOn = on
	if on {
		c.filterL.Configure(kind, freq, q, 0, c.rate)
		c.filterR.SetCoeffsFrom(c.filterL)
	}
}

// SetEQ sets the strip's three-band EQ gains in dB.
func (c *ChannelStrip) SetEQ(lowDB, midDB, highDB float64) {
	c.eqL.SetGains(lowDB, midDB, highDB)
	c.eqR.SetGainsFrom(c.eqL)
}

// SetFader positions the channel fader in [0, 1] (audio taper applied).
func (c *ChannelStrip) SetFader(x float64) {
	c.fader = audio.Clamp(x, 0, 1)
}

// SetCue routes the channel to the headphone bus.
func (c *ChannelStrip) SetCue(on bool) { c.cue = on }

// Cue reports whether the channel feeds the cue bus.
func (c *ChannelStrip) Cue() bool { return c.cue }

// SetCrossfadeSide assigns the channel to a crossfader side.
func (c *ChannelStrip) SetCrossfadeSide(s CrossfadeSide) { c.side = s }

// CrossfadeSide returns the channel's crossfader assignment.
func (c *ChannelStrip) CrossfadeSide() CrossfadeSide { return c.side }

// Process runs the strip over one stereo packet in place.
func (c *ChannelStrip) Process(buf audio.Stereo) {
	if c.filterOn {
		dsp.ProcessPair(c.filterL, c.filterR, buf.L, buf.R, buf.L, buf.R)
	}
	dsp.ProcessEQPair(c.eqL, c.eqR, buf.L, buf.R)
	g := dsp.FaderCurve(c.fader)
	c.gainL.Apply(buf.L, g)
	c.gainR.Apply(buf.R, g)
}

// Mixer combines the channel outputs (through the crossfader) and the
// sampler into the master bus and derives the cue bus.
type Mixer struct {
	crossfade   float64 // 0 = full A, 1 = full B
	masterLevel float64
}

// NewMixer returns a mixer with the crossfader centered and unity master.
func NewMixer() *Mixer {
	return &Mixer{crossfade: 0.5, masterLevel: 1}
}

// SetCrossfade positions the crossfader in [0, 1].
func (m *Mixer) SetCrossfade(x float64) { m.crossfade = audio.Clamp(x, 0, 1) }

// SetMasterLevel sets the master output gain in [0, 2].
func (m *Mixer) SetMasterLevel(g float64) { m.masterLevel = audio.Clamp(g, 0, 2) }

// ChannelInput couples a strip with its processed packet for mixing.
type ChannelInput struct {
	Strip  *ChannelStrip
	Packet audio.Stereo
}

// MixInto sums the channels and sampler into master (which is zeroed
// first), applying crossfader gains and the master level.
func (m *Mixer) MixInto(master audio.Stereo, channels []ChannelInput, sampler audio.Stereo) {
	master.Zero()
	ga, gb := dsp.CrossfadeGains(m.crossfade)
	for _, ch := range channels {
		g := 1.0
		switch ch.Strip.CrossfadeSide() {
		case CrossfadeA:
			g = ga
		case CrossfadeB:
			g = gb
		}
		master.AddFrom(ch.Packet, g)
	}
	if sampler.Len() > 0 {
		master.AddFrom(sampler, 1)
	}
	master.Scale(m.masterLevel)
}

// CueInto builds the headphone bus: the sum of cued channels, or the
// master when nothing is cued. dst is zeroed first.
func (m *Mixer) CueInto(dst audio.Stereo, channels []ChannelInput, master audio.Stereo) {
	dst.Zero()
	any := false
	for _, ch := range channels {
		if ch.Strip.Cue() {
			dst.AddFrom(ch.Packet, 1)
			any = true
		}
	}
	if !any {
		// Nothing cued: headphones get the master so they are never dead.
		dst.AddFrom(master, 1)
	}
}

// OutputStage is the limiter + hard clip applied by AudioOut1 and
// RecordBuffer before samples leave the engine.
type OutputStage struct {
	limiterL, limiterR *dsp.Limiter
	ceiling            float64
	clipped            int64 // total clipped samples, for diagnostics
}

// NewOutputStage returns an output stage with the given linear ceiling.
func NewOutputStage(ceiling float64, rate int) *OutputStage {
	attack := float64(rate) * 0.0002 // 0.2 ms
	release := float64(rate) * 0.05  // 50 ms
	return &OutputStage{
		limiterL: dsp.NewLimiter(ceiling*0.97, attack, release, rate),
		limiterR: dsp.NewLimiter(ceiling*0.97, attack, release, rate),
		ceiling:  ceiling,
	}
}

// Process limits and clips one packet in place.
func (o *OutputStage) Process(buf audio.Stereo) {
	o.limiterL.Process(buf.L)
	o.limiterR.Process(buf.R)
	o.clipped += int64(dsp.HardClip(buf.L, o.ceiling))
	o.clipped += int64(dsp.HardClip(buf.R, o.ceiling))
}

// ClippedSamples returns the running count of hard-clipped samples.
func (o *OutputStage) ClippedSamples() int64 { return o.clipped }

// Sampler plays one-shot audio clips into the mix ("Audio Sampler" in
// Fig. 3). Triggering restarts the clip.
type Sampler struct {
	clip    audio.Stereo
	pos     int
	playing bool
	gain    float64
}

// NewSampler returns an empty sampler at unity gain.
func NewSampler() *Sampler { return &Sampler{gain: 1} }

// LoadClip installs the clip the sampler plays.
func (s *Sampler) LoadClip(clip audio.Stereo) {
	s.clip = clip
	s.pos = 0
	s.playing = false
}

// SetGain sets the sampler level in [0, 2].
func (s *Sampler) SetGain(g float64) { s.gain = audio.Clamp(g, 0, 2) }

// Trigger (re)starts clip playback; a no-op when no clip is loaded.
func (s *Sampler) Trigger() {
	if s.clip.Len() > 0 {
		s.pos = 0
		s.playing = true
	}
}

// Playing reports whether the sampler is sounding.
func (s *Sampler) Playing() bool { return s.playing }

// ReadPacket fills dst with the next stretch of the clip (zero padded) and
// advances; playback stops at the clip end.
func (s *Sampler) ReadPacket(dst audio.Stereo) {
	dst.Zero()
	if !s.playing {
		return
	}
	n := dst.Len()
	remain := s.clip.Len() - s.pos
	if remain <= 0 {
		s.playing = false
		return
	}
	cnt := min(n, remain)
	for i := 0; i < cnt; i++ {
		dst.L[i] = s.clip.L[s.pos+i] * s.gain
		dst.R[i] = s.clip.R[s.pos+i] * s.gain
	}
	s.pos += cnt
	if s.pos >= s.clip.Len() {
		s.playing = false
	}
}

// VUMeter tracks peak and RMS with ballistic decay for the metering nodes.
type VUMeter struct {
	peak  float64
	rms   float64
	decay float64
}

// NewVUMeter returns a meter whose peak decays by the given factor per
// packet (e.g. 0.95).
func NewVUMeter(decay float64) *VUMeter {
	if decay <= 0 || decay >= 1 {
		decay = 0.95
	}
	return &VUMeter{decay: decay}
}

// Update feeds one packet into the meter.
func (v *VUMeter) Update(buf audio.Stereo) {
	p := buf.Peak()
	if p > v.peak {
		v.peak = p
	} else {
		v.peak = dsp.Settle(v.peak * v.decay)
	}
	v.rms = buf.RMS()
}

// Levels returns the current peak and RMS readings.
func (v *VUMeter) Levels() (peak, rms float64) { return v.peak, v.rms }

// String renders the meter as a compact status string.
func (v *VUMeter) String() string {
	return fmt.Sprintf("peak %.2f dB / rms %.2f dB",
		audio.LinearToDB(v.peak), audio.LinearToDB(v.rms))
}
