package effects

import (
	"math"
	"reflect"
	"testing"

	"djstar/internal/audio"
	"djstar/internal/synth"
)

const rate = audio.SampleRate

// allEffects constructs one of each registered effect.
func allEffects(t *testing.T) []Effect {
	t.Helper()
	var out []Effect
	for name, ctor := range Registry {
		e := ctor(rate)
		if e == nil {
			t.Fatalf("constructor %q returned nil", name)
		}
		out = append(out, e)
	}
	return out
}

func makeTestPacket() audio.Stereo {
	s := audio.NewStereo(audio.PacketSize)
	copy(s.L, synth.SineBuffer(440, audio.PacketSize, rate))
	copy(s.R, synth.SineBuffer(660, audio.PacketSize, rate))
	return s
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"echo", "flanger", "phaser", "reverb", "bitcrusher",
		"gater", "beatmasher", "filtersweep", "autopan", "brake"}
	for _, name := range want {
		ctor, ok := Registry[name]
		if !ok {
			t.Fatalf("effect %q missing from registry", name)
		}
		if got := ctor(rate).Name(); got != name {
			t.Fatalf("effect name = %q, want %q", got, name)
		}
	}
	if len(Registry) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(Registry), len(want))
	}
}

func TestEffectsProduceFiniteBoundedOutput(t *testing.T) {
	for _, e := range allEffects(t) {
		e.SetMacro(0.7)
		e.SetWet(1)
		src := makeTestPacket()
		buf := audio.NewStereo(audio.PacketSize)
		// Run enough packets to fill delay lines and exercise feedback.
		for p := 0; p < 2000; p++ {
			buf.CopyFrom(src)
			e.Process(buf)
			for i := range buf.L {
				if math.IsNaN(buf.L[i]) || math.IsInf(buf.L[i], 0) {
					t.Fatalf("%s produced non-finite output at packet %d", e.Name(), p)
				}
			}
			if peak := buf.Peak(); peak > 50 {
				t.Fatalf("%s output blew up: peak %v at packet %d", e.Name(), peak, p)
			}
		}
	}
}

// macroOf reads the knob position SetMacro stored in the unit's base.
func macroOf(e Effect) float64 {
	return reflect.ValueOf(e).Elem().FieldByName("macro").Float()
}

func TestMacroAndWetClamped(t *testing.T) {
	for _, e := range allEffects(t) {
		e.SetMacro(-5)
		if m := macroOf(e); m != 0 {
			t.Fatalf("%s macro after -5 = %v, want 0", e.Name(), m)
		}
		e.SetMacro(7)
		if m := macroOf(e); m != 1 {
			t.Fatalf("%s macro after 7 = %v, want 1", e.Name(), m)
		}
		e.SetWet(2) // must not panic; effect remains usable
		buf := makeTestPacket()
		e.Process(buf)
	}
}

func TestDryWetZeroIsTransparentForMixEffects(t *testing.T) {
	// Effects built on base.mix must pass dry through at wet = 0.
	for _, name := range []string{"echo", "flanger", "phaser", "reverb", "bitcrusher", "gater"} {
		e := Registry[name](rate)
		e.SetWet(0)
		in := makeTestPacket()
		buf := audio.NewStereo(audio.PacketSize)
		buf.CopyFrom(in)
		e.Process(buf)
		for i := range buf.L {
			if math.Abs(buf.L[i]-in.L[i]) > 1e-9 {
				t.Fatalf("%s not transparent at wet=0: sample %d %v vs %v",
					name, i, buf.L[i], in.L[i])
			}
		}
	}
}

func TestEchoDelaysSignal(t *testing.T) {
	e := NewEcho(rate)
	e.SetWet(1)
	e.SetMacro(0) // shortest delay
	d := e.delaySamples()

	// Feed an impulse then silence; the echo must reappear after d samples.
	total := d + 256
	nPackets := (total + audio.PacketSize - 1) / audio.PacketSize
	var out []float64
	for p := 0; p < nPackets; p++ {
		buf := audio.NewStereo(audio.PacketSize)
		if p == 0 {
			buf.L[0] = 1
			buf.R[0] = 1
		}
		e.Process(buf)
		out = append(out, buf.L...)
	}
	// Find first nonzero output sample: should be at index d.
	first := -1
	for i, s := range out {
		if math.Abs(s) > 1e-9 {
			first = i
			break
		}
	}
	if first != d {
		t.Fatalf("echo appeared at sample %d, want %d", first, d)
	}
}

func TestEchoMacroChangesDelay(t *testing.T) {
	e := NewEcho(rate)
	e.SetMacro(0)
	short := e.delaySamples()
	e.SetMacro(1)
	long := e.delaySamples()
	if long <= short {
		t.Fatalf("macro did not lengthen delay: %d vs %d", short, long)
	}
}

func TestGaterChopsSignal(t *testing.T) {
	g := NewGater(rate)
	g.SetWet(1)
	g.SetMacro(1) // fastest gate (16 Hz)
	// Feed constant 1.0 for half a second and observe both open and closed
	// phases.
	var minEnv, maxEnv = math.Inf(1), math.Inf(-1)
	for p := 0; p < rate/2/audio.PacketSize; p++ {
		buf := audio.NewStereo(audio.PacketSize)
		for i := range buf.L {
			buf.L[i] = 1
			buf.R[i] = 1
		}
		g.Process(buf)
		for _, s := range buf.L {
			if s < minEnv {
				minEnv = s
			}
			if s > maxEnv {
				maxEnv = s
			}
		}
	}
	if maxEnv < 0.8 {
		t.Fatalf("gate never opened: max %v", maxEnv)
	}
	if minEnv > 0.2 {
		t.Fatalf("gate never closed: min %v", minEnv)
	}
}

func TestBitCrusherQuantizes(t *testing.T) {
	c := NewBitCrusher(rate)
	c.SetWet(1)
	c.SetMacro(1) // 3 bits, heavy decimation
	buf := makeTestPacket()
	c.Process(buf)
	// With 3 bits there are only 2^3 = 8 levels; count distinct values.
	seen := map[float64]bool{}
	for _, s := range buf.L {
		seen[s] = true
	}
	if len(seen) > 16 {
		t.Fatalf("crushed signal has %d distinct levels, want few", len(seen))
	}
}

func TestBeatMasherLoops(t *testing.T) {
	m := NewBeatMasher(rate)
	m.SetWet(1)
	m.SetMacro(0) // shortest slice
	n := m.sliceLen()

	// Feed a ramp long enough to finish capture, then silence.
	fill := (n/audio.PacketSize + 2) * audio.PacketSize
	idx := 0
	for idx < fill {
		buf := audio.NewStereo(audio.PacketSize)
		for i := range buf.L {
			buf.L[i] = float64(idx+i) / float64(fill)
		}
		m.Process(buf)
		idx += audio.PacketSize
	}
	// Now feed silence; output should repeat the captured slice (nonzero).
	buf := audio.NewStereo(audio.PacketSize)
	m.Process(buf)
	if buf.Peak() == 0 {
		t.Fatal("beatmasher produced silence after capture")
	}
	m.Reset()
	buf2 := audio.NewStereo(audio.PacketSize)
	m.Process(buf2)
	if buf2.Peak() != 0 {
		t.Fatal("after Reset the masher should capture (pass dry silence)")
	}
}

func TestFilterSweepModes(t *testing.T) {
	// Low setting: low-pass kills a high sine.
	fs := NewFilterSweep(rate)
	fs.SetMacro(0.05)
	high := audio.NewStereo(4096)
	copy(high.L, synth.SineBuffer(10000, 4096, rate))
	copy(high.R, high.L)
	fs.Process(high)
	if p := (audio.Stereo{L: high.L[2048:]}).Peak(); p > 0.1 {
		t.Fatalf("LP mode left high content: %v", p)
	}

	// High setting: high-pass kills a low sine.
	fs2 := NewFilterSweep(rate)
	fs2.SetMacro(0.95)
	low := audio.NewStereo(4096)
	copy(low.L, synth.SineBuffer(60, 4096, rate))
	copy(low.R, low.L)
	fs2.Process(low)
	if p := (audio.Stereo{L: low.L[2048:]}).Peak(); p > 0.1 {
		t.Fatalf("HP mode left low content: %v", p)
	}

	// Center: transparent in magnitude (all-pass).
	fs3 := NewFilterSweep(rate)
	fs3.SetMacro(0.5)
	mid := audio.NewStereo(8192)
	copy(mid.L, synth.SineBuffer(1000, 8192, rate))
	copy(mid.R, mid.L)
	before := audio.Stereo{L: mid.L}.RMS()
	fs3.Process(mid)
	after := audio.Stereo{L: mid.L[4096:]}.RMS()
	if math.Abs(after-before)/before > 0.1 {
		t.Fatalf("center position not transparent: RMS %v -> %v", before, after)
	}
}

func TestReverbTailDecays(t *testing.T) {
	r := NewReverb(rate)
	r.SetWet(1)
	r.SetMacro(0.2)
	// One loud packet, then silence; tail must be nonzero then decay.
	buf := makeTestPacket()
	r.Process(buf)
	// The shortest comb delay is ~29.7 ms (~10 packets), so sample the tail
	// just after the first echo and again much later.
	var tail0, tail1 float64
	for p := 0; p < 120; p++ {
		s := audio.NewStereo(audio.PacketSize)
		r.Process(s)
		if p == 12 {
			tail0 = s.RMS()
		}
		if p == 119 {
			tail1 = s.RMS()
		}
	}
	if tail0 == 0 {
		t.Fatal("reverb has no tail")
	}
	if tail1 >= tail0 {
		t.Fatalf("reverb tail not decaying: %v -> %v", tail0, tail1)
	}
}

func TestResetRestoresSilence(t *testing.T) {
	for _, e := range allEffects(t) {
		e.SetWet(1)
		buf := makeTestPacket()
		for i := 0; i < 50; i++ {
			e.Process(buf)
		}
		e.Reset()
		silent := audio.NewStereo(audio.PacketSize)
		e.Process(silent)
		// After reset, silence in means silence out (beatmasher recaptures,
		// gater envelope restarts — all must be quiet).
		if p := silent.Peak(); p > 1e-9 {
			t.Fatalf("%s not silent after Reset: peak %v", e.Name(), p)
		}
	}
}

func TestStandardChainsDiffer(t *testing.T) {
	a := StandardChain(0, rate)
	b := StandardChain(1, rate)
	for i := range a {
		if a[i] == nil || b[i] == nil {
			t.Fatalf("nil effect in chain at %d", i)
		}
	}
	if a[0].Name() == b[0].Name() && a[1].Name() == b[1].Name() &&
		a[2].Name() == b[2].Name() && a[3].Name() == b[3].Name() {
		t.Fatal("deck chains 0 and 1 identical; expected rotation")
	}
}

func TestEffectsProcessNoAlloc(t *testing.T) {
	for _, e := range allEffects(t) {
		buf := makeTestPacket()
		e.Process(buf) // warm up state
		allocs := testing.AllocsPerRun(50, func() { e.Process(buf) })
		if allocs != 0 {
			t.Fatalf("%s allocates %v per packet", e.Name(), allocs)
		}
	}
}
