package dsp

import "math"

// settleFloor is the level below which a recursive state is treated as
// silence. See Settle.
const settleFloor = 1e-60

// Settle returns x, or exactly 0 when |x| is below settleFloor. Every
// recursive state on the cycle path — a biquad's z1/z2, a smoother's
// level, the samples a feedback loop writes back into its delay line —
// goes through it, once per block wherever the recursion allows, so a
// state is either at or above the floor or exactly 0 when a packet ends
// and never decays into the subnormal range, where each multiply costs a
// microcode assist and a silent input becomes the most expensive one
// (DESIGN.md §21).
//
// The floor is -1200 dB: sixty orders of magnitude under full scale and
// forty under the rounding error of a -100 dB sample, so no output bit
// that reaches a converter changes. It is high enough that what happens to a state between two
// settles cannot reach 2.2e-308 either: the fastest decay in the graph is
// the reverb's damping one-pole, 0.2 per sample or 3e-90 over a
// 128-sample packet, which takes a state at the floor to 3e-150, and an
// RMS squares that to 1e-299.
func Settle(x float64) float64 {
	// |x| < settleFloor on the bit patterns, sign shifted out: integer
	// compare and conditional move, so the settle adds no branch and no
	// floating-point work to the loop it ends (or, in the comb, sits in).
	b := math.Float64bits(x)
	if b<<1 < math.Float64bits(settleFloor)<<1 {
		b = 0
	}
	return math.Float64frombits(b)
}

// settleFloor32 is settleFloor for float32 history: Narrow stores 0 below
// it, and a float32 DelayLine settles to it. Between two of a line's
// settles, settleShare trips apart, the weakest loop gain in the graph
// (the echo's 0.45) shrinks a recursion by 0.45^8, so the floor is
// 2^-126 / 0.45^8 = 6.99e-36, rounded up, to keep it normal (DESIGN.md
// §21): -700 dB, 28 orders under a full-scale float32's rounding error.
const settleFloor32 = 7e-36

// Narrow returns x as a float32, or exactly 0 when |x| is below
// settleFloor32. The comparison is made on x's float64 bits, before the
// conversion, so a float64 that float32 cannot hold as a normal number is
// never converted into a subnormal: every store into float32 history goes
// through it.
func Narrow(x float64) float32 {
	b := math.Float64bits(x)
	if b<<1 < math.Float64bits(settleFloor32)<<1 {
		b = 0
	}
	return float32(math.Float64frombits(b))
}
