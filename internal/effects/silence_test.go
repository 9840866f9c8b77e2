package effects

import (
	"cmp"
	"math"
	"testing"

	"djstar/internal/audio"
	"djstar/internal/dsp/dsptest"
	"djstar/internal/synth"
)

// The silence sweep over every unit in the Registry (dsptest.Sweep): noise,
// silence, noise, with every value the unit holds checked after every
// packet. sweepCases gives each unit its setting and the number of silent
// packets by which its state must be exactly 0, derived from its slowest
// pole or feedback loop; a unit missing from it fails the test.

type sweepCase struct {
	effect     string // Registry name when it is not the case's own
	macro, wet float64
	// zeroBy is dsptest.Kernel.ZeroBy; state overrides dsptest.Recursive.
	zeroBy int
	state  func(dsptest.Leaf) bool
}

// loopPackets is PacketsToFloor for a feedback loop of gain g round a
// delay of d samples.
func loopPackets(g float64, d int) int {
	return dsptest.PacketsToFloor(100, math.Pow(g, 1/float64(d)))
}

func sweepCases() map[string]sweepCase {
	hz := float64(audio.SampleRate)
	ms := func(x float64) int { return int(x / 1000 * hz) }
	shortEcho := NewEcho(audio.SampleRate)
	shortEcho.SetMacro(0)
	echoDelay := shortEcho.delaySamples()
	brakeLine := NewBrake(audio.SampleRate).line.Capacity()/audio.PacketSize + 1
	return map[string]sweepCase{
		// Macro 0 is the shortest delay, 1/16 note: the most trips round
		// the loop per packet. 0.45 per trip, and Settle's lane lag.
		"echo": {macro: 0, wet: 0.25,
			zeroBy: loopPackets(0.45, echoDelay) + dsptest.LaneLag(echoDelay)},
		// 0.3 per trip round at most center+depth = 7 ms; every sample is
		// settled on the way in, so no lag.
		"flanger": {macro: 0.3, wet: 0.25, zeroBy: loopPackets(0.3, ms(7)+1)},
		// Four all-pass sections; the sweep's lowest centre, 1.5 octaves
		// under 800 Hz, has the slowest poles.
		"phaser": {macro: 0.3, wet: 0.25,
			zeroBy: dsptest.PacketsToFloor(100, dsptest.PoleRadius(800/math.Pow(2, 1.5), 0.7, audio.SampleRate))},
		// Macro 1 is the longest decay, 0.95 per trip round the longest
		// comb (43.7 ms + 23 samples): about 130 s of audio to the floor,
		// past the 100 s at which the tail used to turn subnormal. The
		// diffusers behind the combs then need their lane lag.
		"reverb": {macro: 1, wet: 0.25,
			zeroBy: loopPackets(0.95, ms(43.7)+23) + dsptest.LaneLag(ms(5.0)+7) + 2},
		// The held sample is requantised, to 0, within one decimation
		// period of 1+15*macro samples.
		"bitcrusher": {macro: 0.3, wet: 0.25, zeroBy: 2, state: dsptest.Fields("holdL", "holdR")},
		// The gate's envelope swings between 0 and 1 for ever, a stretch
		// of 0.995 per sample at most half a gate period long (1e-48 at
		// the slowest gate), and multiplies the input: nothing to reach 0
		// but the output, at once.
		"gater": {macro: 0.5, wet: 0.25, zeroBy: 1},
		// Loops what it captured for good, in the capture it was built
		// with and in one grown to the longest slice.
		"beatmasher":       {macro: 0.4, wet: 0.25, zeroBy: 0},
		"beatmasher/grown": {effect: "beatmasher", macro: 1, wet: 0.25, zeroBy: 0},
		// Macro 0 is the 80 Hz low-pass, the slowest poles of the sweep.
		"filtersweep": {macro: 0, wet: 1, zeroBy: dsptest.PacketsToFloor(100, dsptest.PoleRadius(80, 0.9, audio.SampleRate))},
		"autopan":     {macro: 0.3, wet: 0.25, zeroBy: 1},
		// Released (wet 0): out of the signal path, recording the mid into
		// a 2 s line (131072 slots) with no feedback.
		"brake": {macro: 0.5, wet: 0, zeroBy: brakeLine},
		// Engaged, it winds down to speed 0 and stays there, reading the
		// far end of the line; it too holds nothing but those 2 s.
		"brake/engaged": {effect: "brake", macro: 1, wet: 1, zeroBy: brakeLine},
	}
}

// carry copies what a unit holds that is not a decaying memory of the
// signal: LFO phases, the gate envelope, the crusher's decimation counter.
func carry(swept, fresh any) {
	switch s := swept.(type) {
	case *Flanger:
		fresh.(*Flanger).phase = s.phase
	case *Phaser:
		fresh.(*Phaser).phase = s.phase
	case *Gater:
		f := fresh.(*Gater)
		f.phase, f.env = s.phase, s.env
	case *AutoPan:
		fresh.(*AutoPan).phase = s.phase
	case *BitCrusher:
		fresh.(*BitCrusher).counter = s.counter
	case *Brake:
		f := fresh.(*Brake)
		f.speed, f.delay = s.speed, s.delay
	}
}

var (
	sweepNoiseL = synth.WhiteNoise(64*audio.PacketSize, 0.5, 51)
	sweepNoiseR = synth.WhiteNoise(64*audio.PacketSize, 0.5, 52)
)

func sweepUnit(name string, c sweepCase) dsptest.Kernel {
	return dsptest.Kernel{
		Name:   name,
		ZeroBy: c.zeroBy,
		State:  c.state,
		Carry:  carry,
		New: func() dsptest.Unit {
			fx := Registry[cmp.Or(c.effect, name)](audio.SampleRate)
			fx.SetMacro(c.macro)
			fx.SetWet(c.wet)
			return dsptest.Unit{State: fx, Process: func(l, r []float64) { fx.Process(audio.Stereo{L: l, R: r}) }}
		},
	}
}

func TestSilenceSweep(t *testing.T) {
	if audio.PacketSize != dsptest.PacketSize {
		t.Fatalf("dsptest.PacketSize = %d, audio.PacketSize = %d", dsptest.PacketSize, audio.PacketSize)
	}
	cases := sweepCases()
	for name := range Registry {
		if _, ok := cases[name]; !ok {
			t.Errorf("registered effect %q has no sweep case", name)
		}
	}
	for name, c := range cases {
		k := sweepUnit(name, c)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			dsptest.Sweep(t, k, sweepNoiseL, sweepNoiseR)
		})
	}
}
