package effects

import (
	"math"

	"djstar/internal/audio"
	"djstar/internal/dsp"
)

// AutoPan sweeps the signal between the left and right channels with an
// equal-power LFO. The macro knob controls the sweep rate.
type AutoPan struct {
	base
	phase float64
	rate  int
}

// NewAutoPan returns an auto-panner for sampling rate hz.
func NewAutoPan(hz int) *AutoPan {
	return &AutoPan{base: base{name: "autopan", macro: 0.3, wet: 1}, rate: hz}
}

// Process implements Effect.
func (a *AutoPan) Process(buf audio.Stereo) {
	lfoHz := 0.1 + a.macro*8 // 0.1..8.1 Hz
	inc := lfoHz / float64(a.rate)
	for i := range buf.L {
		pan := math.Sin(2 * math.Pi * a.phase) // -1..1
		a.phase += inc
		if a.phase >= 1 {
			a.phase -= 1
		}
		gl, gr := dsp.EqualPowerPan(pan)
		// Mono-ize the pan source so the sweep is audible on any input,
		// then spread with the constant-power gains.
		mid := 0.5 * (buf.L[i] + buf.R[i])
		buf.L[i] = a.mix(buf.L[i], mid*gl*math.Sqrt2)
		buf.R[i] = a.mix(buf.R[i], mid*gr*math.Sqrt2)
	}
}

// Reset implements Effect.
func (a *AutoPan) Reset() { a.phase = 0 }

// Brake emulates powering a turntable off: on each trigger the audio
// winds down from full speed to a stop (with the matching pitch drop),
// like hitting stop on a spinning deck. The macro knob controls how fast
// the platter stops; setting the wet control to 0 releases the brake.
type Brake struct {
	base
	line  *dsp.DelayLine
	delay float64 // how far behind real time the read tap has fallen
	speed float64 // current platter speed, 1 -> 0 while braking
	rate  int
}

// NewBrake returns a brake effect for sampling rate hz.
func NewBrake(hz int) *Brake {
	return &Brake{
		base:  base{name: "brake", macro: 0.5, wet: 0},
		line:  dsp.NewDelayLine(hz * 2),
		speed: 1,
		rate:  hz,
	}
}

// Process implements Effect. The wet control arms the brake: wet > 0.5
// engages (speed ramps to 0), wet <= 0.5 spins back up.
func (b *Brake) Process(buf audio.Stereo) {
	// Stop time between 0.1 s (macro 1) and 2 s (macro 0).
	stopSec := 2 - b.macro*1.9
	accel := 1 / (stopSec * float64(b.rate))
	engaged := b.wet > 0.5
	maxDelay := float64(b.line.Capacity() - 2)
	for i := range buf.L {
		// Track platter speed.
		if engaged {
			b.speed -= accel
			if b.speed < 0 {
				b.speed = 0
			}
		} else {
			b.speed += accel * 2 // spin-up is quicker than stop
			if b.speed > 1 {
				b.speed = 1
			}
		}
		// Write real time, read at platter speed: the tap falls behind by
		// (1 - speed) samples per sample.
		mid := 0.5 * (buf.L[i] + buf.R[i])
		b.line.Write(mid)
		b.delay += 1 - b.speed
		if b.delay > maxDelay {
			b.delay = maxDelay
		}
		if !engaged && b.speed >= 1 && b.delay > 0 {
			// Fully spun up: reel the tap back in gently (slightly fast
			// playback) until we are live again.
			b.delay -= 0.2
			if b.delay < 0 {
				b.delay = 0
			}
		}
		if b.speed >= 1 && b.delay == 0 {
			// Spun up and caught up: the platter is live, so the brake is
			// out of the signal path (the line above keeps filling, ready
			// for the next trigger). Reading mid back would fold the
			// stereo image to mono for as long as the unit sits released.
			continue
		}
		out := b.line.ReadFrac(1+b.delay) * b.speed
		buf.L[i] = out
		buf.R[i] = out
	}
}

// Reset implements Effect.
func (b *Brake) Reset() {
	b.line.Reset()
	b.delay = 0
	b.speed = 1
}
