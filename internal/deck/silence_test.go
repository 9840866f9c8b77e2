package deck

import (
	"testing"

	"djstar/internal/audio"
	"djstar/internal/dsp/dsptest"
	"djstar/internal/synth"
)

// TestSilenceSweep puts the key-lock shifter through dsptest.Sweep. Its
// delay line is not in a feedback loop — it holds the last input samples
// its taps reach and nothing else — so it has no state to settle: the
// sweep holds it to that, by value.
func TestSilenceSweep(t *testing.T) {
	noiseL := synth.WhiteNoise(64*audio.PacketSize, 0.5, 71)
	noiseR := synth.WhiteNoise(64*audio.PacketSize, 0.5, 72)
	k := dsptest.Kernel{
		Name:   "PitchShifter",
		ZeroBy: NewPitchShifter(audio.SampleRate).line.Capacity()/audio.PacketSize + 1,
		New: func() dsptest.Unit {
			ps := []*PitchShifter{NewPitchShifter(audio.SampleRate), NewPitchShifter(audio.SampleRate)}
			return dsptest.Unit{State: ps, Process: func(l, r []float64) {
				ps[0].Process(l, 1/0.97)
				ps[1].Process(r, 1/0.97)
			}}
		},
		Carry: func(swept, fresh any) {
			for i, p := range swept.([]*PitchShifter) {
				fresh.([]*PitchShifter)[i].phase = p.phase
			}
		},
	}
	dsptest.Sweep(t, k, noiseL, noiseR)
}

// TestPausedDeckReadsExactSilence pins what the rest of the graph relies
// on to settle: a paused, an ended and an empty deck write exact zeros,
// key lock or not.
func TestPausedDeckReadsExactSilence(t *testing.T) {
	tr := testTrack()
	dst := audio.NewStereo(audio.PacketSize)
	silent := func(what string) {
		t.Helper()
		for i := range dst.L {
			if dst.L[i] != 0 || dst.R[i] != 0 {
				t.Fatalf("%s: sample %d = (%g, %g), want exactly 0", what, i, dst.L[i], dst.R[i])
			}
		}
	}
	d := New("deck", audio.SampleRate)
	d.Load(tr)
	d.SetTempo(0.97)
	d.SetKeyLock(true)
	d.Play()
	for p := 0; p < 50; p++ {
		d.ReadPacket(dst)
		dsptest.NoSubnormals(t, "playing deck", d, tr)
	}
	d.Pause()
	d.ReadPacket(dst)
	silent("paused")

	d.Play()
	d.Seek(float64(tr.Len()) - 200)
	d.ReadPacket(dst) // runs off the end: stops
	d.ReadPacket(dst)
	if d.Playing() {
		t.Fatal("deck still playing past the end of the track")
	}
	silent("ended")

	d.Load(nil)
	d.Play()
	d.ReadPacket(dst)
	silent("ejected")
	dsptest.NoSubnormals(t, "stopped deck", d, tr)
}
