package dsp

import "math"

// Rotor is a quadrature oscillator that advances by rotation: each step
// multiplies the unit phasor (cos, sin) by the fixed step phasor, one
// complex multiply instead of a Sin per sample. The rounding of each
// multiply makes the phasor drift from the exact angle by about k·2⁻⁵³
// after k steps, so callers reseed it from their own phase accumulator at
// every packet start and the drift never outlives a packet (DESIGN.md
// §31). It is a value type: held in a local, it lives in registers.
type Rotor struct {
	s, c   float64 // sine and cosine of the current angle
	ds, dc float64 // sine and cosine of one step
}

// NewRotor returns a rotor at phase cycles that advances inc cycles per
// step.
func NewRotor(phase, inc float64) Rotor {
	s, c := math.Sincos(2 * math.Pi * phase)
	ds, dc := math.Sincos(2 * math.Pi * inc)
	return Rotor{s: s, c: c, ds: ds, dc: dc}
}

// Next returns the sine and cosine of the current angle and advances one
// step.
func (r *Rotor) Next() (sin, cos float64) {
	sin, cos = r.s, r.c
	r.s = sin*r.dc + cos*r.ds
	r.c = cos*r.dc - sin*r.ds
	return sin, cos
}
