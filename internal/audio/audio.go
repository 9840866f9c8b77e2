// Package audio provides the fundamental sample-buffer types and packet
// clock arithmetic used throughout the DJ Star reproduction.
//
// DJ Star processes audio in fixed-size packets of 128 samples at a
// 44.1 kHz sampling rate, which means the sound card requests a fresh
// packet every 2.902 ms (344.53 Hz). Every subsystem in this repository
// operates on these packets; the types here are deliberately small and
// allocation-free in their hot paths.
package audio

import (
	"fmt"
	"math"
	"time"
)

// Standard DJ Star stream parameters (paper §III-A).
const (
	// SampleRate is the output sampling rate in Hz.
	SampleRate = 44100

	// PacketSize is the number of frames per audio packet (buffer size BS).
	PacketSize = 128
)

// PacketPeriod returns the wall-clock duration of one packet of n frames at
// rate hz: the hard deadline for producing the next packet.
func PacketPeriod(n, hz int) time.Duration {
	return time.Duration(float64(n) / float64(hz) * float64(time.Second))
}

// StandardPacketPeriod is the DJ Star deadline: 128 frames at 44.1 kHz,
// approximately 2.902 ms.
var StandardPacketPeriod = PacketPeriod(PacketSize, SampleRate)

// Buffer is a mono audio packet: a fixed-length slice of float64 samples in
// the nominal range [-1, 1]. Code that processes Buffers must not change
// their length.
type Buffer []float64

// NewBuffer allocates a zeroed mono buffer of n frames.
func NewBuffer(n int) Buffer { return make(Buffer, n) }

// Zero clears the buffer in place.
func (b Buffer) Zero() {
	for i := range b {
		b[i] = 0
	}
}

// CopyFrom copies src into b. The buffers must have equal length.
func (b Buffer) CopyFrom(src Buffer) {
	if len(b) != len(src) {
		panic(fmt.Sprintf("audio: CopyFrom length mismatch %d != %d", len(b), len(src)))
	}
	copy(b, src)
}

// AddFrom mixes src into b sample-wise with the given linear gain. Both
// operands are resliced to the common length once, so the loop carries
// no bounds check.
func (b Buffer) AddFrom(src Buffer, gain float64) {
	n := min(len(b), len(src))
	b, src = b[:n], src[:n]
	for i := range b {
		b[i] += src[i] * gain
	}
}

// Scale multiplies every sample by the linear gain g.
func (b Buffer) Scale(g float64) {
	for i := range b {
		b[i] *= g
	}
}

// peak is the largest |x| over a and b, NaN skipped, taken as an integer
// max of magnitude bits (the sign cleared), which order like the
// magnitudes for every non-NaN value, +Inf included, and put every NaN
// above +Inf's. a and b advance in one loop on two lanes each, so
// neither taken branches nor one serial chain bound it; only when a NaN
// comes out on top does a second pass rebuild the max without it.
func peak(a, b Buffer) float64 {
	const sign, inf = 1 << 63, 0x7FF0000000000000
	n := min(len(a), len(b))
	x, y := a[:n], b[:n]
	var p0, p1, p2, p3 uint64
	for ; len(x) >= 2 && len(y) >= 2; x, y = x[2:], y[2:] {
		p0 = max(p0, math.Float64bits(x[0])&^sign)
		p1 = max(p1, math.Float64bits(x[1])&^sign)
		p2 = max(p2, math.Float64bits(y[0])&^sign)
		p3 = max(p3, math.Float64bits(y[1])&^sign)
	}
	p := max(p0, p1, p2, p3)
	for _, rest := range [...]Buffer{x, y, a[n:], b[n:]} { // odd frame, longer side's tail
		for _, v := range rest {
			p = max(p, math.Float64bits(v)&^sign)
		}
	}
	if p > inf {
		p = 0
		for _, rest := range [...]Buffer{a, b} {
			for _, v := range rest {
				if m := math.Float64bits(v) &^ sign; m <= inf {
					p = max(p, m)
				}
			}
		}
	}
	return math.Float64frombits(p)
}

// Stereo is a two-channel audio packet with independent left and right
// buffers of equal length.
type Stereo struct {
	L, R Buffer
}

// NewStereo allocates a zeroed stereo packet of n frames per channel.
func NewStereo(n int) Stereo {
	return Stereo{L: NewBuffer(n), R: NewBuffer(n)}
}

// Len returns the number of frames per channel.
func (s Stereo) Len() int { return len(s.L) }

// Zero clears both channels.
func (s Stereo) Zero() {
	s.L.Zero()
	s.R.Zero()
}

// CopyFrom copies both channels from src.
func (s Stereo) CopyFrom(src Stereo) {
	s.L.CopyFrom(src.L)
	s.R.CopyFrom(src.R)
}

// AddFrom mixes src into s with the given linear gain on both channels.
func (s Stereo) AddFrom(src Stereo, gain float64) {
	s.L.AddFrom(src.L, gain)
	s.R.AddFrom(src.R, gain)
}

// Scale multiplies both channels by the linear gain g.
func (s Stereo) Scale(g float64) {
	s.L.Scale(g)
	s.R.Scale(g)
}

// Peak returns the largest absolute sample over both channels; NaN
// samples are skipped, and an empty or all-NaN packet peaks at +0.
func (s Stereo) Peak() float64 { return peak(s.L, s.R) }

// RMS returns the combined RMS level over both channels. The two energy
// sums advance in one loop — separate accumulators, each adding its
// channel's samples in index order as Buffer.Energy does — so the two
// addition chains overlap instead of running back to back.
func (s Stereo) RMS() float64 {
	total := len(s.L) + len(s.R)
	if total == 0 {
		return 0
	}
	n := min(len(s.L), len(s.R))
	r := s.R[:n]
	var el, er float64
	for i, v := range s.L[:n] {
		el += v * v
		er += r[i] * r[i]
	}
	for _, v := range s.L[n:] { // channels of unequal length: finish the longer
		el += v * v
	}
	for _, v := range s.R[n:] {
		er += v * v
	}
	return math.Sqrt((el + er) / float64(total))
}

// Mono mixes the stereo packet down into dst as (L+R)/2.
// dst must have the same frame count.
func (s Stereo) Mono(dst Buffer) {
	if len(dst) != len(s.L) {
		panic(fmt.Sprintf("audio: Mono length mismatch %d != %d", len(dst), len(s.L)))
	}
	for i := range dst {
		dst[i] = 0.5 * (s.L[i] + s.R[i])
	}
}

// LinearToDB converts a linear gain factor to decibels.
// A gain of 0 returns -inf.
func LinearToDB(g float64) float64 {
	if g <= 0 {
		return math.Inf(-1)
	}
	return 20 * math.Log10(g)
}

// Clamp limits x to the range [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
