package mixer

import (
	"math"
	"testing"

	"djstar/internal/audio"
	"djstar/internal/dsp"
	"djstar/internal/dsp/dsptest"
	"djstar/internal/synth"
)

// The silence sweep over the mixer's stateful stages (dsptest.Sweep).

func TestSilenceSweep(t *testing.T) {
	noiseL := synth.WhiteNoise(64*audio.PacketSize, 0.5, 61)
	noiseR := synth.WhiteNoise(64*audio.PacketSize, 0.5, 62)
	kernels := []dsptest.Kernel{
		// A 100 Hz low-pass on the strip filter has slower poles than any
		// EQ band (the 250 Hz shelf is next).
		{Name: "ChannelStrip", ZeroBy: dsptest.PacketsToFloor(100, dsptest.PoleRadius(100, 0.9, audio.SampleRate)), New: func() dsptest.Unit {
			strip := NewChannelStrip("sweep", audio.SampleRate)
			strip.SetEQ(3, -26, 6)
			strip.SetFilter(dsp.LowPass, 100, 0.9, true)
			strip.SetFader(0.8)
			return dsptest.Unit{State: strip, Process: func(l, r []float64) { strip.Process(audio.Stereo{L: l, R: r}) }}
		}},
		// The limiter's gain relaxes to 1 and the noise never reaches the
		// threshold: the stage holds nothing that must reach 0, and must
		// hold nothing subnormal either.
		{Name: "OutputStage", ZeroBy: 1, New: func() dsptest.Unit {
			out := NewOutputStage(0.98, audio.SampleRate)
			return dsptest.Unit{State: out, Process: func(l, r []float64) { out.Process(audio.Stereo{L: l, R: r}) }}
		}},
		// The peak hold falls by 0.95 a packet. The readings stand in for
		// an output: they must be 0 with the state, and a new meter's on
		// the second burst.
		{Name: "VUMeter", ZeroBy: dsptest.PacketsToFloor(1, math.Pow(0.95, 1.0/audio.PacketSize)), State: dsptest.Fields("peak"), New: func() dsptest.Unit {
			vu := NewVUMeter(0.95)
			return dsptest.Unit{State: vu, Process: func(l, r []float64) {
				vu.Update(audio.Stereo{L: l, R: r})
				clear(l)
				clear(r)
				l[0], r[0] = vu.Levels()
			}}
		}},
	}
	for _, k := range kernels {
		k := k
		t.Run(k.Name, func(t *testing.T) { dsptest.Sweep(t, k, noiseL, noiseR) })
	}
}
