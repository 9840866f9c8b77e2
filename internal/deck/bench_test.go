package deck

import (
	"testing"

	"djstar/internal/audio"
)

// benchRead times ReadPacket on a deck looping over the whole test track:
// nearly every packet takes the interior path, one per pass the edge path.
func benchRead(b *testing.B, tempo float64, keyLock bool) {
	tr := testTrack()
	d := New("bench", audio.SampleRate)
	d.Load(tr)
	d.SetLoop(0, float64(tr.Len()))
	d.SetTempo(tempo)
	d.SetKeyLock(keyLock)
	d.Play()
	dst := audio.NewStereo(audio.PacketSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.ReadPacket(dst)
	}
}

func BenchmarkReadPacket(b *testing.B)        { benchRead(b, 1.03, false) }
func BenchmarkReadPacketKeyLock(b *testing.B) { benchRead(b, 0.97, true) }

// BenchmarkReadPacketEdge keeps the deck in a loop shorter than a packet's
// reach, so every packet wraps and takes the per-sample edge path.
func BenchmarkReadPacketEdge(b *testing.B) {
	d := New("bench", audio.SampleRate)
	d.Load(testTrack())
	d.SetLoop(1000, 1100)
	d.Seek(1000)
	d.Play()
	dst := audio.NewStereo(audio.PacketSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.ReadPacket(dst)
	}
}

func BenchmarkPitchShifterProcess(b *testing.B) {
	p := NewPitchShifter(audio.SampleRate)
	src := testTrack().Audio.L[:audio.PacketSize]
	buf := make([]float64, audio.PacketSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(buf, src)
		p.Process(buf, 1/0.97)
	}
}

func TestPitchShifterProcessNoAlloc(t *testing.T) {
	p := NewPitchShifter(audio.SampleRate)
	buf := make([]float64, audio.PacketSize)
	if allocs := testing.AllocsPerRun(100, func() { p.Process(buf, 1/0.97) }); allocs != 0 {
		t.Fatalf("PitchShifter.Process allocates %v per packet", allocs)
	}
}
