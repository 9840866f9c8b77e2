package deck

import (
	"testing"

	"djstar/internal/audio"
	"djstar/internal/dsp/dsptest"
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
	tr := testTrack()
	src := f64(tr.L[:audio.PacketSize], tr.Gain)
	buf := make([]float64, audio.PacketSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(buf, src)
		p.Process(buf, 1/0.97)
	}
}

// BenchmarkSilenceTail times the key-lock shifter on sound and, beside it,
// on the silence after it (dsptest.BenchSilenceTail). The shifter's line
// is no feedback loop, so the two never differed; the pair is here so that
// every kernel package reports the same two figures.
func BenchmarkSilenceTail(b *testing.B) {
	src := testTrack()
	b.Run("PitchShifter", func(b *testing.B) {
		dsptest.BenchSilenceTail(b, 64, f64(src.L[:audio.PacketSize], src.Gain), f64(src.R[:audio.PacketSize], src.Gain), func() func(l, r []float64) {
			pl, pr := NewPitchShifter(audio.SampleRate), NewPitchShifter(audio.SampleRate)
			return func(l, r []float64) {
				pl.Process(l, 1/0.97)
				pr.Process(r, 1/0.97)
			}
		})
	})
}

func TestPitchShifterProcessNoAlloc(t *testing.T) {
	p := NewPitchShifter(audio.SampleRate)
	buf := make([]float64, audio.PacketSize)
	if allocs := testing.AllocsPerRun(100, func() { p.Process(buf, 1/0.97) }); allocs != 0 {
		t.Fatalf("PitchShifter.Process allocates %v per packet", allocs)
	}
}
