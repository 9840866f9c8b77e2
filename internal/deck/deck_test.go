package deck

import (
	"math"
	"testing"

	"djstar/internal/audio"
	"djstar/internal/synth"
)

func testTrack() *synth.Track {
	return synth.GenerateTrack(synth.TrackSpec{Name: "test", Bars: 2, Seed: 1})
}

func TestDeckSilentWhenStopped(t *testing.T) {
	d := New("deck-a", audio.SampleRate)
	dst := audio.NewStereo(audio.PacketSize)
	dst.L[0] = 99 // must be overwritten
	d.ReadPacket(dst)
	if dst.Peak() != 0 {
		t.Fatal("stopped deck produced audio")
	}
}

func TestDeckPlayWithoutTrackIsNoop(t *testing.T) {
	d := New("x", audio.SampleRate)
	d.Play()
	if d.Playing() {
		t.Fatal("deck playing without a track")
	}
}

func TestDeckPlaysTrackAudio(t *testing.T) {
	d := New("x", audio.SampleRate)
	tr := testTrack()
	d.Load(tr)
	d.Play()
	dst := audio.NewStereo(audio.PacketSize)
	d.ReadPacket(dst)
	want := f64(tr.L[:audio.PacketSize], tr.Gain)
	for i := 0; i < audio.PacketSize; i++ {
		if math.Abs(dst.L[i]-want[i]) > 1e-9 {
			t.Fatalf("unity playback differs at %d: %v vs %v", i, dst.L[i], want[i])
		}
	}
	if p := d.Position(); math.Abs(p-audio.PacketSize) > 1e-9 {
		t.Fatalf("position = %v, want %v", p, audio.PacketSize)
	}
}

func TestDeckTempoAdvancesFaster(t *testing.T) {
	d := New("x", audio.SampleRate)
	d.Load(testTrack())
	d.SetTempo(1.25)
	d.Play()
	dst := audio.NewStereo(audio.PacketSize)
	d.ReadPacket(dst)
	if p := d.Position(); math.Abs(p-1.25*audio.PacketSize) > 1e-6 {
		t.Fatalf("position = %v, want %v", p, 1.25*audio.PacketSize)
	}
}

func TestDeckTempoClamped(t *testing.T) {
	d := New("x", audio.SampleRate)
	d.SetTempo(10)
	if d.Tempo() != 1.5 {
		t.Fatalf("tempo = %v, want 1.5", d.Tempo())
	}
	d.SetTempo(0.01)
	if d.Tempo() != 0.5 {
		t.Fatalf("tempo = %v, want 0.5", d.Tempo())
	}
}

func TestDeckStopsAtEndOfTrack(t *testing.T) {
	d := New("x", audio.SampleRate)
	tr := testTrack()
	d.Load(tr)
	d.Seek(float64(tr.Len()) - 10)
	d.Play()
	dst := audio.NewStereo(audio.PacketSize)
	d.ReadPacket(dst)
	if d.Playing() {
		t.Fatal("deck still playing past end of track")
	}
	// Tail of the packet must be silence.
	for i := 20; i < audio.PacketSize; i++ {
		if dst.L[i] != 0 {
			t.Fatalf("sample %d past end = %v", i, dst.L[i])
		}
	}
}

func TestDeckLoopWraps(t *testing.T) {
	d := New("x", audio.SampleRate)
	tr := testTrack()
	d.Load(tr)
	d.SetLoop(100, 200)
	if !d.loopOn {
		t.Fatal("loop not armed")
	}
	d.Seek(150)
	d.Play()
	dst := audio.NewStereo(audio.PacketSize)
	d.ReadPacket(dst)
	// After 128 frames from 150 we would be at 278; the loop wraps us back
	// into [100, 200).
	if p := d.Position(); p < 100 || p >= 200 {
		t.Fatalf("position %v escaped loop [100,200)", p)
	}
	d.SetLoop(0, 0)
	if d.loopOn {
		t.Fatal("an empty loop did not disable the loop")
	}
}

func TestDeckLoopDegenerateDisables(t *testing.T) {
	d := New("x", audio.SampleRate)
	d.SetLoop(200, 100)
	if d.loopOn {
		t.Fatal("degenerate loop armed")
	}
}

func TestDeckSeekClamped(t *testing.T) {
	d := New("x", audio.SampleRate)
	tr := testTrack()
	d.Load(tr)
	d.Seek(-100)
	if d.Position() != 0 {
		t.Fatalf("Seek(-100) = %v", d.Position())
	}
	d.Seek(1e12)
	if d.Position() != float64(tr.Len()) {
		t.Fatalf("Seek(huge) = %v, want %v", d.Position(), tr.Len())
	}
	// Seeking an empty deck is a no-op.
	e := New("y", audio.SampleRate)
	e.Seek(100)
	if e.Position() != 0 {
		t.Fatal("seek on empty deck moved playhead")
	}
}

func TestDeckBeatPhase(t *testing.T) {
	d := New("x", audio.SampleRate)
	if d.BeatPhase() != 0 {
		t.Fatal("empty deck BeatPhase != 0")
	}
	tr := testTrack()
	d.Load(tr)
	d.Seek(float64(tr.FramesPerBar) / 2)
	if p := d.BeatPhase(); math.Abs(p-0.5) > 1e-9 {
		t.Fatalf("BeatPhase = %v, want 0.5", p)
	}
}

func TestDeckLoadRewinds(t *testing.T) {
	d := New("x", audio.SampleRate)
	d.Load(testTrack())
	d.Play()
	d.Seek(1000)
	d.Load(testTrack())
	if d.Position() != 0 || d.Playing() {
		t.Fatal("Load did not rewind/stop")
	}
}

func TestKeyLockPreservesPitch(t *testing.T) {
	// Build a pure-tone track so pitch is measurable.
	const rate = audio.SampleRate
	const freq = 440.0
	tone := synth.SineBuffer(freq, rate, rate)
	tr := &synth.Track{
		Name:         "tone",
		BPM:          120,
		L:            pcm(tone),
		R:            pcm(tone),
		Gain:         1.0 / 32767,
		FramesPerBar: rate,
		LoudBars:     []bool{true},
	}

	measure := func(keylock bool) float64 {
		d := New("x", rate)
		d.Load(tr)
		d.SetTempo(1.3)
		d.SetKeyLock(keylock)
		d.Play()
		var out []float64
		dst := audio.NewStereo(audio.PacketSize)
		for i := 0; i < 120; i++ {
			d.ReadPacket(dst)
			out = append(out, dst.L...)
		}
		// Count zero crossings over the middle stretch.
		mid := out[len(out)/4 : 3*len(out)/4]
		crossings := 0
		for i := 1; i < len(mid); i++ {
			if (mid[i-1] < 0 && mid[i] >= 0) || (mid[i-1] > 0 && mid[i] <= 0) {
				crossings++
			}
		}
		return float64(crossings) / 2 / (float64(len(mid)) / rate)
	}

	raw := measure(false)
	locked := measure(true)
	if math.Abs(raw-freq*1.3) > 20 {
		t.Fatalf("raw playback freq %v, want ~%v", raw, freq*1.3)
	}
	if math.Abs(locked-freq) > 25 {
		t.Fatalf("keylocked freq %v, want ~%v", locked, freq)
	}
}

func TestKeyLockUnityTempoBypasses(t *testing.T) {
	d := New("x", audio.SampleRate)
	tr := testTrack()
	d.Load(tr)
	d.SetKeyLock(true)
	d.Play()
	dst := audio.NewStereo(audio.PacketSize)
	d.ReadPacket(dst)
	for i := 0; i < audio.PacketSize; i++ {
		if math.Abs(dst.L[i]-float64(tr.L[i])*tr.Gain) > 1e-9 {
			t.Fatalf("keylock at unity tempo altered audio at %d", i)
		}
	}
}

func TestPitchShifterIdentityAtUnity(t *testing.T) {
	p := NewPitchShifter(audio.SampleRate)
	// The shifter has ~half-window latency; feed enough signal to flush it.
	in := synth.SineBuffer(440, 4096, audio.SampleRate)
	buf := make([]float64, len(in))
	copy(buf, in)
	p.Process(buf, 1)
	// Unity shift: output is a delayed/crossfaded copy; require bounded,
	// non-silent steady-state output.
	if (audio.Stereo{L: buf[2048:]}).Peak() == 0 {
		t.Fatal("unity shift silenced signal")
	}
	for i, s := range buf {
		if math.Abs(s) > 1.5 {
			t.Fatalf("sample %d = %v", i, s)
		}
	}
	p.Process(buf, 0) // invalid shift treated as unity, no panic
}

func TestReadPacketNoAlloc(t *testing.T) {
	d := New("x", audio.SampleRate)
	d.Load(testTrack())
	d.SetTempo(1.1)
	d.SetKeyLock(true)
	d.Play()
	dst := audio.NewStereo(audio.PacketSize)
	d.ReadPacket(dst)
	allocs := testing.AllocsPerRun(100, func() { d.ReadPacket(dst) })
	if allocs != 0 {
		t.Fatalf("ReadPacket allocates %v per packet", allocs)
	}
}
