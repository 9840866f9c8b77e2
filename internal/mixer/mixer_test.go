package mixer

import (
	"math"
	"testing"

	"djstar/internal/audio"
	"djstar/internal/dsp"
	"djstar/internal/synth"
)

const rate = audio.SampleRate

func tonePacket(freq float64, n int) audio.Stereo {
	s := audio.NewStereo(n)
	copy(s.L, synth.SineBuffer(freq, n, rate))
	copy(s.R, s.L)
	return s
}

func TestChannelStripFlatPassThrough(t *testing.T) {
	c := NewChannelStrip("ch-a", rate)
	in := tonePacket(1000, 4096)
	buf := audio.NewStereo(4096)
	buf.CopyFrom(in)
	c.Process(buf)
	// Flat EQ, no filter, unity fader: RMS preserved in steady state.
	before := audio.Buffer(in.L[2048:]).RMS()
	after := audio.Buffer(buf.L[2048:]).RMS()
	if math.Abs(after-before)/before > 0.05 {
		t.Fatalf("flat strip altered level: %v -> %v", before, after)
	}
	if c.Name() != "ch-a" {
		t.Fatalf("Name = %q", c.Name())
	}
	if c.Peak() == 0 {
		t.Fatal("Peak not updated")
	}
}

func TestChannelStripFaderCloses(t *testing.T) {
	c := NewChannelStrip("c", rate)
	c.SetFader(0)
	buf := tonePacket(1000, audio.PacketSize)
	c.Process(buf) // first packet ramps down
	buf2 := tonePacket(1000, audio.PacketSize)
	c.Process(buf2) // second packet fully closed
	if p := buf2.Peak(); p > 1e-9 {
		t.Fatalf("closed fader leaks: %v", p)
	}
	if c.fader != 0 {
		t.Fatalf("Fader = %v", c.fader)
	}
}

func TestChannelStripFaderClamped(t *testing.T) {
	c := NewChannelStrip("c", rate)
	c.SetFader(5)
	if c.fader != 1 {
		t.Fatalf("fader = %v, want 1", c.fader)
	}
	c.SetFader(-1)
	if c.fader != 0 {
		t.Fatalf("fader = %v, want 0", c.fader)
	}
}

func TestChannelStripFilterLP(t *testing.T) {
	c := NewChannelStrip("c", rate)
	c.SetFilter(dsp.LowPass, 500, 0.9, true)
	buf := tonePacket(8000, 4096)
	c.Process(buf)
	if p := audio.Buffer(buf.L[2048:]).Peak(); p > 0.05 {
		t.Fatalf("LP filter left high tone at %v", p)
	}
	c.SetFilter(dsp.AllPass, 0, 0, false) // bypass again
	buf2 := tonePacket(8000, 4096)
	c.Process(buf2)
	if p := audio.Buffer(buf2.L[2048:]).Peak(); p < 0.5 {
		t.Fatalf("bypassed filter still filtering: %v", p)
	}
}

func TestChannelStripEQKill(t *testing.T) {
	c := NewChannelStrip("c", rate)
	c.SetEQ(dsp.EQGainMin, 0, 0)
	buf := tonePacket(60, 8192)
	c.Process(buf)
	if p := audio.Buffer(buf.L[4096:]).Peak(); p > 0.15 {
		t.Fatalf("low kill leaves %v", p)
	}
}

func TestChannelStripCueAndSide(t *testing.T) {
	c := NewChannelStrip("c", rate)
	c.SetCue(true)
	if !c.Cue() {
		t.Fatal("cue not set")
	}
	c.SetCrossfadeSide(CrossfadeB)
	if c.CrossfadeSide() != CrossfadeB {
		t.Fatal("side not set")
	}
	c.Reset()
	if c.Peak() != 0 {
		t.Fatal("Reset did not clear peak")
	}
}

func makeInputs(n int, level float64) []ChannelInput {
	var ins []ChannelInput
	for i := 0; i < n; i++ {
		p := audio.NewStereo(audio.PacketSize)
		for j := range p.L {
			p.L[j] = level
			p.R[j] = level
		}
		ins = append(ins, ChannelInput{Strip: NewChannelStrip("c", rate), Packet: p})
	}
	return ins
}

func TestMixerSumsThruChannels(t *testing.T) {
	m := NewMixer()
	ins := makeInputs(2, 0.25) // both CrossfadeThru by default
	master := audio.NewStereo(audio.PacketSize)
	m.MixInto(master, ins, audio.Stereo{})
	if math.Abs(master.L[10]-0.5) > 1e-9 {
		t.Fatalf("master sample = %v, want 0.5", master.L[10])
	}
}

func TestMixerCrossfadeEnds(t *testing.T) {
	m := NewMixer()
	ins := makeInputs(2, 0.5)
	ins[0].Strip.SetCrossfadeSide(CrossfadeA)
	ins[1].Strip.SetCrossfadeSide(CrossfadeB)
	master := audio.NewStereo(audio.PacketSize)

	m.SetCrossfade(0) // full A
	m.MixInto(master, ins, audio.Stereo{})
	if math.Abs(master.L[5]-0.5) > 1e-9 {
		t.Fatalf("full-A master = %v, want 0.5", master.L[5])
	}

	m.SetCrossfade(1) // full B: A side silent, B at unity
	m.MixInto(master, ins, audio.Stereo{})
	if math.Abs(master.L[5]-0.5) > 1e-9 {
		t.Fatalf("full-B master = %v, want 0.5", master.L[5])
	}

	m.SetCrossfade(0.5) // center: both at cos(pi/4) ~ 0.707
	m.MixInto(master, ins, audio.Stereo{})
	want := 0.5 * math.Sqrt2
	if math.Abs(master.L[5]-want) > 1e-9 {
		t.Fatalf("center master = %v, want %v", master.L[5], want)
	}
}

func TestMixerMasterLevelAndSampler(t *testing.T) {
	m := NewMixer()
	m.SetMasterLevel(0.5)
	ins := makeInputs(1, 0.4)
	smp := audio.NewStereo(audio.PacketSize)
	for i := range smp.L {
		smp.L[i] = 0.2
		smp.R[i] = 0.2
	}
	master := audio.NewStereo(audio.PacketSize)
	m.MixInto(master, ins, smp)
	if math.Abs(master.L[3]-0.3) > 1e-9 { // (0.4+0.2)*0.5
		t.Fatalf("master = %v, want 0.3", master.L[3])
	}
	if m.masterLevel != 0.5 {
		t.Fatal("MasterLevel getter wrong")
	}
}

func TestMixerSettersClamped(t *testing.T) {
	m := NewMixer()
	m.SetCrossfade(7)
	if m.crossfade != 1 {
		t.Fatalf("crossfade = %v", m.crossfade)
	}
	m.SetMasterLevel(9)
	if m.masterLevel != 2 {
		t.Fatalf("master level = %v", m.masterLevel)
	}
}

func TestCueBusSelectsCuedChannels(t *testing.T) {
	m := NewMixer()
	ins := makeInputs(2, 0.3)
	ins[0].Strip.SetCue(true)
	master := audio.NewStereo(audio.PacketSize)
	cue := audio.NewStereo(audio.PacketSize)
	m.MixInto(master, ins, audio.Stereo{})
	m.CueInto(cue, ins, master)
	if math.Abs(cue.L[7]-0.3) > 1e-9 {
		t.Fatalf("cue bus = %v, want only channel 0 (0.3)", cue.L[7])
	}
}

func TestCueBusFallsBackToMaster(t *testing.T) {
	m := NewMixer()
	ins := makeInputs(2, 0.3)
	master := audio.NewStereo(audio.PacketSize)
	cue := audio.NewStereo(audio.PacketSize)
	m.MixInto(master, ins, audio.Stereo{})
	m.CueInto(cue, ins, master)
	for i := range cue.L {
		if cue.L[i] != master.L[i] {
			t.Fatalf("cue fallback differs from master at %d", i)
		}
	}
}

func TestCueMixBlends(t *testing.T) {
	m := NewMixer()
	m.SetCueMix(0.5)
	ins := makeInputs(2, 0.4)
	ins[0].Strip.SetCue(true)
	master := audio.NewStereo(audio.PacketSize)
	cue := audio.NewStereo(audio.PacketSize)
	m.MixInto(master, ins, audio.Stereo{}) // master = 0.8
	m.CueInto(cue, ins, master)
	want := 0.4*0.5 + 0.8*0.5
	if math.Abs(cue.L[2]-want) > 1e-9 {
		t.Fatalf("blended cue = %v, want %v", cue.L[2], want)
	}
}

func TestOutputStageLimitsAndClips(t *testing.T) {
	o := NewOutputStage(1.0, rate)
	buf := audio.NewStereo(4096)
	for i := range buf.L {
		buf.L[i] = 3 * math.Sin(2*math.Pi*float64(i)/64)
		buf.R[i] = buf.L[i]
	}
	o.Process(buf)
	if p := buf.Peak(); p > 1.0+1e-12 {
		t.Fatalf("output exceeds ceiling: %v", p)
	}
	o.Reset()
	if o.ClippedSamples() != 0 {
		t.Fatal("Reset did not clear clip counter")
	}
}

func TestSamplerLifecycle(t *testing.T) {
	s := NewSampler()
	dst := audio.NewStereo(audio.PacketSize)
	s.Trigger() // no clip: no-op
	if s.Playing() {
		t.Fatal("empty sampler playing")
	}
	clip := audio.NewStereo(200)
	for i := range clip.L {
		clip.L[i] = 1
		clip.R[i] = 1
	}
	s.LoadClip(clip)
	s.SetGain(0.5)
	s.Trigger()
	if !s.Playing() {
		t.Fatal("sampler not playing after trigger")
	}
	s.ReadPacket(dst)
	if math.Abs(dst.L[0]-0.5) > 1e-12 {
		t.Fatalf("sampler output %v, want 0.5", dst.L[0])
	}
	s.ReadPacket(dst) // 200-sample clip ends inside packet 2
	if s.Playing() {
		t.Fatal("sampler still playing past clip end")
	}
	// Tail zero-padded.
	if dst.L[100] != 0 {
		t.Fatalf("tail not padded: %v", dst.L[100])
	}
	// Re-trigger restarts.
	s.Trigger()
	s.ReadPacket(dst)
	if dst.L[0] != 0.5 {
		t.Fatal("re-trigger did not restart clip")
	}
}

func TestVUMeter(t *testing.T) {
	v := NewVUMeter(0.5)
	buf := tonePacket(1000, audio.PacketSize)
	v.Update(buf)
	peak1, rms1 := v.Levels()
	if peak1 == 0 || rms1 == 0 {
		t.Fatal("meter stayed at zero")
	}
	silent := audio.NewStereo(audio.PacketSize)
	v.Update(silent)
	peak2, rms2 := v.Levels()
	if peak2 >= peak1 || rms2 != 0 {
		t.Fatalf("decay wrong: peak %v->%v rms %v", peak1, peak2, rms2)
	}
	if v.String() == "" {
		t.Fatal("String empty")
	}
	// Invalid decay falls back to default.
	if NewVUMeter(7) == nil {
		t.Fatal("NewVUMeter(7) nil")
	}
}

func TestMixHotPathNoAlloc(t *testing.T) {
	m := NewMixer()
	ins := makeInputs(4, 0.2)
	smp := audio.NewStereo(audio.PacketSize)
	master := audio.NewStereo(audio.PacketSize)
	cue := audio.NewStereo(audio.PacketSize)
	strip := NewChannelStrip("c", rate)
	buf := tonePacket(500, audio.PacketSize)
	out := NewOutputStage(1, rate)
	allocs := testing.AllocsPerRun(100, func() {
		strip.Process(buf)
		m.MixInto(master, ins, smp)
		m.CueInto(cue, ins, master)
		out.Process(master)
	})
	if allocs != 0 {
		t.Fatalf("mix hot path allocates %v per packet", allocs)
	}
}
