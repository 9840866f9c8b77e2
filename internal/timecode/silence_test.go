package timecode

import (
	"testing"

	"djstar/internal/audio"
	"djstar/internal/dsp/dsptest"
)

// TestDecoderTrackersNeverSubnormal takes the decoder through a control
// signal that plays, fades out, stops dead and comes back. Its trackers
// are not recursions that head for 0 on their own: the amplitude reference
// only decays (0.999 per carrier cycle) while cycles keep arriving, and it
// is a peak hold, so it stays above the carrier it is fed; in dead silence
// no cycle completes and nothing moves; the speed estimate converges on
// rate/cycle length, never on 0. So the decoder needs no settle step — and
// this test holds it to that by value, after every packet.
func TestDecoderTrackersNeverSubnormal(t *testing.T) {
	g, d := NewGenerator(sharedSeq, audio.SampleRate), NewDecoder(sharedSeq, audio.SampleRate)
	l, r := make([]float64, audio.PacketSize), make([]float64, audio.PacketSize)
	step := func(phase string, p int, level float64) {
		g.Generate(l, r)
		for i := range l {
			l[i] *= level
			r[i] *= level
		}
		d.Decode(l, r)
		dsptest.NoSubnormals(t, phase, d, sharedSeq)
		if t.Failed() {
			t.Fatalf("%s, packet %d", phase, p)
		}
	}
	for p := 0; p < 64; p++ {
		step("playing", p, 1)
	}
	if !d.Locked() {
		t.Fatal("no lock on a clean signal")
	}
	// Fade to the last normal magnitudes a fader could produce, 6 dB a
	// packet, then sit there: the reference follows the carrier down.
	level := 1.0
	for p := 0; p < 900; p++ {
		level *= 0.5
		step("fading", p, level)
	}
	for p := 0; p < 3000; p++ {
		step("at 1e-271", p, level)
	}
	if d.recentPeak < level*bitLow/2 {
		t.Fatalf("amplitude reference %g fell under the carrier's %g", d.recentPeak, level)
	}
	for p := 0; p < 2000; p++ {
		step("stopped", p, 0)
	}
	before := d.recentPeak
	for p := 0; p < 10; p++ {
		step("stopped", p, 0)
	}
	if d.recentPeak != before {
		t.Fatalf("amplitude reference moved in dead silence: %g -> %g", before, d.recentPeak)
	}
	for p := 0; p < 64; p++ {
		step("playing again", p, 1)
	}
	if !d.Locked() {
		t.Fatal("no lock after the signal came back")
	}
}
