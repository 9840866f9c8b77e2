package mixer

import (
	"testing"

	"djstar/internal/audio"
	"djstar/internal/dsp"
	"djstar/internal/dsp/dsptest"
	"djstar/internal/synth"
)

// Each benchmark restores its 128-sample stereo packet from a fixed noise
// source before the call, so in-place stages never decay their input into
// denormals (the copy is part of every figure, as in bench/layers.go).

var (
	benchSrcL = synth.WhiteNoise(audio.PacketSize, 0.5, 1)
	benchSrcR = synth.WhiteNoise(audio.PacketSize, 0.5, 2)
)

func benchStrip(b *testing.B, filterOn bool) {
	strip := NewChannelStrip("bench", audio.SampleRate)
	strip.SetEQ(3, -2, 1)
	strip.SetFilter(dsp.LowPass, 2000, 0.9, filterOn)
	buf := audio.NewStereo(audio.PacketSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(buf.L, benchSrcL)
		copy(buf.R, benchSrcR)
		strip.Process(buf)
	}
}

func BenchmarkChannelStripProcess(b *testing.B)       { benchStrip(b, false) }
func BenchmarkChannelStripProcessFilter(b *testing.B) { benchStrip(b, true) }

func BenchmarkVUMeterUpdate(b *testing.B) {
	vu := NewVUMeter(0.95)
	buf := audio.Stereo{L: benchSrcL, R: benchSrcR}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vu.Update(buf)
	}
}

func BenchmarkOutputStageProcess(b *testing.B) {
	out := NewOutputStage(0.98, audio.SampleRate)
	buf := audio.NewStereo(audio.PacketSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(buf.L, benchSrcL)
		copy(buf.R, benchSrcR)
		out.Process(buf)
	}
}

// BenchmarkSilenceTail times the strip (filter on) and the meter on noise
// and, beside it, on the silence after a burst of noise (dsptest.
// BenchSilenceTail): with a paused deck behind it a strip used to cost
// several times its figure on sound, its seven biquads per channel all
// subnormal.
func BenchmarkSilenceTail(b *testing.B) {
	b.Run("ChannelStrip", func(b *testing.B) {
		dsptest.BenchSilenceTail(b, 400, benchSrcL, benchSrcR, func() func(l, r []float64) {
			strip := NewChannelStrip("bench", audio.SampleRate)
			strip.SetEQ(3, -2, 1)
			strip.SetFilter(dsp.LowPass, 2000, 0.9, true)
			return func(l, r []float64) { strip.Process(audio.Stereo{L: l, R: r}) }
		})
	})
	b.Run("VUMeter", func(b *testing.B) {
		dsptest.BenchSilenceTail(b, 16000, benchSrcL, benchSrcR, func() func(l, r []float64) {
			vu := NewVUMeter(0.95)
			return func(l, r []float64) { vu.Update(audio.Stereo{L: l, R: r}) }
		})
	})
}
