package effects

import (
	"math"
	"testing"

	"djstar/internal/audio"
	"djstar/internal/synth"
)

func TestAutoPanSweepsChannels(t *testing.T) {
	a := NewAutoPan(rate)
	a.SetWet(1)
	a.SetMacro(1) // fastest sweep (~8 Hz)
	// Feed a constant mono tone for half a second; track per-packet
	// channel energy — both sides must win at some point.
	var leftWins, rightWins bool
	for p := 0; p < rate/2/audio.PacketSize; p++ {
		buf := audio.NewStereo(audio.PacketSize)
		for i := range buf.L {
			buf.L[i] = 0.5
			buf.R[i] = 0.5
		}
		a.Process(buf)
		le := energy(buf.L)
		re := energy(buf.R)
		if le > re*2 {
			leftWins = true
		}
		if re > le*2 {
			rightWins = true
		}
	}
	if !leftWins || !rightWins {
		t.Fatalf("pan never reached both sides (left %v right %v)", leftWins, rightWins)
	}
	a.Reset()
}

func TestAutoPanPreservesPowerRoughly(t *testing.T) {
	a := NewAutoPan(rate)
	a.SetWet(1)
	a.SetMacro(0.5)
	var inE, outE float64
	for p := 0; p < 200; p++ {
		buf := audio.NewStereo(audio.PacketSize)
		tone := synth.SineBuffer(440, audio.PacketSize, rate)
		copy(buf.L, tone)
		copy(buf.R, tone)
		inE += energy(buf.L) + energy(buf.R)
		a.Process(buf)
		outE += energy(buf.L) + energy(buf.R)
	}
	if math.Abs(outE-inE)/inE > 0.25 {
		t.Fatalf("autopan power drifted: in %v out %v", inE, outE)
	}
}

func TestBrakeWindsDownToSilence(t *testing.T) {
	b := NewBrake(rate)
	b.SetMacro(1) // fastest stop (~0.1 s)
	b.SetWet(1)   // engage
	tone := func() audio.Stereo {
		s := audio.NewStereo(audio.PacketSize)
		copy(s.L, synth.SineBuffer(880, audio.PacketSize, rate))
		copy(s.R, s.L)
		return s
	}
	var first, last float64
	packets := rate / 4 / audio.PacketSize // 250 ms, past the stop time
	for p := 0; p < packets; p++ {
		buf := tone()
		b.Process(buf)
		if p == 0 {
			first = buf.RMS()
		}
		if p == packets-1 {
			last = buf.RMS()
		}
	}
	if first == 0 {
		t.Fatal("brake silenced audio immediately")
	}
	if last > first/20 {
		t.Fatalf("brake did not stop: first RMS %v, last %v", first, last)
	}
}

func TestBrakeDropsPitchWhileStopping(t *testing.T) {
	b := NewBrake(rate)
	b.SetMacro(0) // slow 2 s stop: pitch glides down
	b.SetWet(1)
	var out []float64
	for p := 0; p < rate/2/audio.PacketSize; p++ {
		buf := audio.NewStereo(audio.PacketSize)
		copy(buf.L, synth.SineBuffer(880, audio.PacketSize, rate))
		copy(buf.R, buf.L)
		b.Process(buf)
		out = append(out, buf.L...)
	}
	freqOf := func(seg []float64) float64 {
		crossings := 0
		for i := 1; i < len(seg); i++ {
			if (seg[i-1] < 0 && seg[i] >= 0) || (seg[i-1] > 0 && seg[i] <= 0) {
				crossings++
			}
		}
		return float64(crossings) / 2 / (float64(len(seg)) / rate)
	}
	early := freqOf(out[:len(out)/4])
	late := freqOf(out[3*len(out)/4:])
	if late >= early*0.95 {
		t.Fatalf("pitch did not drop: early %v Hz, late %v Hz", early, late)
	}
}

func TestBrakeReleasesBackToLive(t *testing.T) {
	b := NewBrake(rate)
	b.SetMacro(1)
	b.SetWet(1)
	feed := func(packets int) float64 {
		var rms float64
		for p := 0; p < packets; p++ {
			buf := audio.NewStereo(audio.PacketSize)
			copy(buf.L, synth.SineBuffer(440, audio.PacketSize, rate))
			copy(buf.R, buf.L)
			b.Process(buf)
			rms = buf.RMS()
		}
		return rms
	}
	stopped := feed(rate / 4 / audio.PacketSize)
	if stopped > 0.01 {
		t.Fatalf("not stopped: %v", stopped)
	}
	b.SetWet(0) // release
	playing := feed(rate / 4 / audio.PacketSize)
	if playing < 0.1 {
		t.Fatalf("did not spin back up: RMS %v", playing)
	}
}

// TestBrakeReleasedIsTransparent feeds a released brake — fresh, and again
// after a full stop and release — a packet whose channels differ. Once the
// platter is back at speed and the tap has caught up, the unit is out of
// the signal path: every sample must come back untouched, not folded to
// the mono mid the line holds. The line must go on recording, so the next
// trigger winds down the audio that was playing.
func TestBrakeReleasedIsTransparent(t *testing.T) {
	l := synth.WhiteNoise(audio.PacketSize, 0.5, 41)
	r := synth.WhiteNoise(audio.PacketSize, 0.5, 42)
	check := func(b *Brake, when string) {
		t.Helper()
		buf := audio.NewStereo(audio.PacketSize)
		copy(buf.L, l)
		copy(buf.R, r)
		b.Process(buf)
		for i := range l {
			if buf.L[i] != l[i] || buf.R[i] != r[i] {
				t.Fatalf("%s: sample %d = (%v, %v), want the input (%v, %v)", when, i, buf.L[i], buf.R[i], l[i], r[i])
			}
		}
	}
	b := NewBrake(rate)
	check(b, "new unit")

	b.SetMacro(1)
	b.SetWet(1) // engage: 0.1 s to a stop
	buf := audio.NewStereo(audio.PacketSize)
	for p := 0; p < rate/4/audio.PacketSize; p++ {
		copy(buf.L, l)
		copy(buf.R, r)
		b.Process(buf)
	}
	if buf.RMS() != 0 {
		t.Fatalf("platter not stopped: RMS %v", buf.RMS())
	}
	b.SetWet(0) // release, and let the tap reel all the way back in
	for p := 0; b.speed < 1 || b.delay > 0; p++ {
		if p > 4*rate/audio.PacketSize {
			t.Fatalf("tap never caught up: speed %v delay %v", b.speed, b.delay)
		}
		copy(buf.L, l)
		copy(buf.R, r)
		b.Process(buf)
	}
	check(b, "after stop and release")

	// Still recording while transparent: engage and the first samples out
	// are the mid of what just went in, at nearly full speed.
	b.SetWet(1)
	copy(buf.L, l)
	copy(buf.R, r)
	b.Process(buf)
	if mid := 0.5 * (l[0] + r[0]); math.Abs(buf.L[0]-mid) > 0.01 || buf.L[0] != buf.R[0] {
		t.Fatalf("engaged brake starts with (%v, %v), want the mid %v of the live input", buf.L[0], buf.R[0], mid)
	}
}

// energy is the sum of squared samples.
func energy(b audio.Buffer) float64 {
	sum := 0.0
	for _, s := range b {
		sum += s * s
	}
	return sum
}
