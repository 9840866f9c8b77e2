package effects

import (
	"sort"
	"testing"

	"djstar/internal/audio"
	"djstar/internal/dsp/dsptest"
	"djstar/internal/synth"
)

// BenchmarkProcess times every registered unit on one 128-sample stereo
// packet, restored from a fixed noise source before each call so feedback
// paths never decay into denormals (the copy is part of every figure, as
// it is in bench/layers.go).
func BenchmarkProcess(b *testing.B) {
	srcL := synth.WhiteNoise(audio.PacketSize, 0.5, 1)
	srcR := synth.WhiteNoise(audio.PacketSize, 0.5, 2)
	for _, name := range registryNames() {
		b.Run(name, func(b *testing.B) {
			fx := Registry[name](audio.SampleRate)
			fx.SetWet(0.25)
			buf := audio.NewStereo(audio.PacketSize)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(buf.L, srcL)
				copy(buf.R, srcR)
				fx.Process(buf)
			}
		})
	}
}

// BenchmarkSilenceTail times every registered unit on noise and, beside
// it, on the silence that follows a burst of noise (dsptest.
// BenchSilenceTail), after 40000 silent packets — 116 s, past the point at
// which the longest tail, the reverb's, used to go subnormal. The silence
// figure must not exceed the noise figure by more than measurement noise;
// before the settle step the phaser's was 110 times its noise figure, the
// reverb's 56 and the filter sweep's 39 (EXPERIMENTS.md R13).
func BenchmarkSilenceTail(b *testing.B) {
	srcL := synth.WhiteNoise(audio.PacketSize, 0.5, 1)
	srcR := synth.WhiteNoise(audio.PacketSize, 0.5, 2)
	for _, name := range registryNames() {
		b.Run(name, func(b *testing.B) {
			dsptest.BenchSilenceTail(b, 40000, srcL, srcR, func() func(l, r []float64) {
				fx := Registry[name](audio.SampleRate)
				fx.SetWet(0.25)
				return func(l, r []float64) { fx.Process(audio.Stereo{L: l, R: r}) }
			})
		})
	}
}

// registryNames lists the registered effects in a fixed order.
func registryNames() []string {
	names := make([]string, 0, len(Registry))
	for name := range Registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
