package timecode

import (
	"testing"

	"djstar/internal/audio"
)

func BenchmarkGenerate(b *testing.B) {
	g := NewGenerator(sharedSeq, audio.SampleRate)
	l, r := make([]float64, audio.PacketSize), make([]float64, audio.PacketSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Generate(l, r)
	}
}

// BenchmarkDecode decodes a ring of pre-generated control packets.
func BenchmarkDecode(b *testing.B) {
	g, d := NewGenerator(sharedSeq, audio.SampleRate), NewDecoder(sharedSeq, audio.SampleRate)
	ring := make([]audio.Stereo, 256)
	for i := range ring {
		ring[i] = audio.NewStereo(audio.PacketSize)
		g.Generate(ring[i].L, ring[i].R)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := ring[i%len(ring)]
		d.Decode(p.L, p.R)
	}
}

func TestGenerateNoAlloc(t *testing.T) {
	g := NewGenerator(sharedSeq, audio.SampleRate)
	l, r := make([]float64, audio.PacketSize), make([]float64, audio.PacketSize)
	if allocs := testing.AllocsPerRun(100, func() { g.Generate(l, r) }); allocs != 0 {
		t.Fatalf("Generate allocates %v per packet", allocs)
	}
}
