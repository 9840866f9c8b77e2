package effects

import (
	"sort"
	"testing"

	"djstar/internal/audio"
	"djstar/internal/synth"
)

// BenchmarkProcess times every registered unit on one 128-sample stereo
// packet, restored from a fixed noise source before each call so feedback
// paths never decay into denormals (the copy is part of every figure, as
// it is in bench/layers.go).
func BenchmarkProcess(b *testing.B) {
	srcL := synth.WhiteNoise(audio.PacketSize, 0.5, 1)
	srcR := synth.WhiteNoise(audio.PacketSize, 0.5, 2)
	names := make([]string, 0, len(Registry))
	for name := range Registry {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
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
