package mixer

import (
	"testing"

	"djstar/internal/audio"
	"djstar/internal/dsp"
	"djstar/internal/synth"
)

// refStrip is ChannelStrip's signal path as it was before the filter and
// EQ became paired kernels — six sequential one-channel passes, both
// channels configured separately — moved here verbatim. (That the
// one-channel ThreeBandEQ.Process equals three Biquad passes is pinned by
// the oracle in internal/dsp.)
type refStrip struct {
	rate             int
	filterL, filterR *dsp.Biquad
	filterOn         bool
	eqL, eqR         *dsp.ThreeBandEQ
	gainL, gainR     *dsp.SmoothedGain
	fader            float64
}

func newRefStrip(rate int) *refStrip {
	return &refStrip{
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

func (c *refStrip) SetFilter(kind dsp.FilterKind, freq, q float64, on bool) {
	c.filterOn = on
	if on {
		c.filterL.Configure(kind, freq, q, 0, c.rate)
		c.filterR.Configure(kind, freq, q, 0, c.rate)
	}
}

func (c *refStrip) SetEQ(lowDB, midDB, highDB float64) {
	c.eqL.SetGains(lowDB, midDB, highDB)
	c.eqR.SetGains(lowDB, midDB, highDB)
}

func (c *refStrip) Process(buf audio.Stereo) {
	if c.filterOn {
		c.filterL.Process(buf.L)
		c.filterR.Process(buf.R)
	}
	c.eqL.Process(buf.L)
	c.eqR.Process(buf.R)
	g := dsp.FaderCurve(c.fader)
	c.gainL.Apply(buf.L, g)
	c.gainR.Apply(buf.R, g)
}

// TestOracleChannelStrip runs a strip beside its reference over 2000
// standard packets and then packets of 1, 7, 127 and 128 samples, of
// seeded noise and of a synthetic deck track, while filter, EQ and fader
// are being moved. Samples must match exactly.
func TestOracleChannelStrip(t *testing.T) {
	lens := make([]int, 0, 2400)
	total := 0
	for i := 0; i < 2400; i++ {
		n := audio.PacketSize
		if i >= 2000 {
			n = []int{1, 7, 127, 128}[i%4]
		}
		lens = append(lens, n)
		total += n
	}
	track, widened := synth.StandardDeckTracks(4)[2], audio.NewStereo(total)
	for i := range widened.L {
		widened.L[i], widened.R[i] = float64(track.L[i])*track.Gain, float64(track.R[i])*track.Gain
	}
	streams := map[string]audio.Stereo{
		"noise": {L: synth.WhiteNoise(total, 0.5, 41), R: synth.WhiteNoise(total, 0.5, 42)},
		"track": widened,
	}
	for name, s := range streams {
		strip, ref := NewChannelStrip("oracle", audio.SampleRate), newRefStrip(audio.SampleRate)
		rng := synth.NewRand(7)
		at := 0
		for p, n := range lens {
			if p%40 == 39 {
				kind := []dsp.FilterKind{dsp.LowPass, dsp.HighPass, dsp.BandPass}[rng.Intn(3)]
				freq, on := 100+rng.Float64()*8000, rng.Intn(4) != 0
				lo, mid, hi := rng.Float64()*40-28, rng.Float64()*40-28, rng.Float64()*40-28
				fader := rng.Float64()
				strip.SetFilter(kind, freq, 0.9, on)
				ref.SetFilter(kind, freq, 0.9, on)
				strip.SetEQ(lo, mid, hi)
				ref.SetEQ(lo, mid, hi)
				strip.SetFader(fader)
				ref.fader = fader
			}
			got, want := audio.NewStereo(n), audio.NewStereo(n)
			got.CopyFrom(audio.Stereo{L: s.L[at : at+n], R: s.R[at : at+n]})
			want.CopyFrom(got)
			strip.Process(got)
			ref.Process(want)
			for i := 0; i < n; i++ {
				if got.L[i] != want.L[i] || got.R[i] != want.R[i] {
					t.Fatalf("%s: packet %d (%d samples) sample %d = (%v, %v), want (%v, %v)",
						name, p, n, i, got.L[i], got.R[i], want.L[i], want.R[i])
				}
			}
			at += n
		}
	}
}
