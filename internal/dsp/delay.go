package dsp

import (
	"fmt"
	"math"
	"unsafe"
)

// Sample is the precision a DelayLine stores. float64 is the default;
// float32 is for long, whole-sample history outside any per-sample
// recursion (the echo), where it halves the memory (DESIGN.md §29).
type Sample interface{ float32 | float64 }

// DelayLine is a circular buffer supporting fixed and fractionally
// interpolated taps. Echo, flanger and phaser effects are built on it.
type DelayLine[T Sample] struct {
	buf  []T
	pos  int     // next write position, always in [0, len(buf))
	top  float64 // len(buf)-1, ReadFrac's clamp: stored, it keeps ReadFrac inlinable
	trip int     // Settle: samples written on the current trip round the loop
	lane int     // Settle: which sample in every settleShare this trip settles
}

// NewDelayLine returns a delay line holding exactly capacity samples of
// history (at least 1): the reach of the longest tap its unit reads.
func NewDelayLine[T Sample](capacity int) *DelayLine[T] {
	capacity = max(capacity, 1)
	return &DelayLine[T]{buf: make([]T, capacity), top: float64(capacity - 1)}
}

// Capacity returns the usable history length in samples.
func (d *DelayLine[T]) Capacity() int { return len(d.buf) }

// back returns the ring index of the sample written k steps ago, for k in
// [0, len(buf)]. The ring is exactly as long as its reach, so there is no
// mask to wrap with; one conditional add does, and keeps Read inlinable.
func (d *DelayLine[T]) back(k int) int {
	i := d.pos - k
	if i < 0 {
		i += len(d.buf)
	}
	return i
}

// Grow raises the capacity to capacity samples, keeping every
// sample the line holds at its delay; the new, older slots read 0. It
// allocates: call it on the control path, never in a block.
func (d *DelayLine[T]) Grow(capacity int) {
	if capacity > len(d.buf) {
		g := make([]T, capacity) // unrolled oldest first, head at len(d.buf)
		copy(g[copy(g, d.buf[d.pos:]):], d.buf[:d.pos])
		d.buf, d.pos, d.top = g, len(d.buf), float64(capacity-1)
	}
}

// Reset zeroes the history.
func (d *DelayLine[T]) Reset() {
	clear(d.buf)
	d.pos, d.trip, d.lane = 0, 0, 0
}

// settleShare is the number of trips round a feedback loop within which
// Settle reaches every sample travelling it.
const settleShare = 8

// Settle is the delay-line form of the package-level Settle, for a line
// that closes a feedback loop through an integer tap delay samples back
// and nothing else (an all-pass diffuser). The kernel calls it once per
// block, after writing n samples. A float32 line settles to its own,
// higher floor (settleFloor32).
//
// Such a loop is delay independent one-pole recursions interleaved in
// time: the sample written now is the one written delay samples ago,
// scaled and added to the input. Settling every written sample would cost
// a compare per sample per line — for the reverb's twelve lines, half
// again what their arithmetic costs — so Settle takes every settleShare-th
// sample of the block instead, and shifts the lane it takes by one on each
// trip round the loop: the sample at offset q of trip k is settled when
// q%settleShare == k%settleShare. Each recursion is therefore settled on
// exactly one trip in settleShare, whatever the delay and the block
// length. In between it shrinks by at most the loop gain to the power
// settleShare (and, where the loop is shorter than the block, by the trips
// one block holds) — 0.45^8 = 2e-3 for the echo's gain, the weakest loop —
// so a value is never more than a few orders under the floor before it
// becomes 0, and the subnormal range stays 240 orders away.
//
// A loop that mixes neighbouring samples cannot use this — an
// interpolated tap (the flanger), a filter in the loop (the comb's
// damping): each sample it writes blends several recursions, so the zeros
// a lane leaves are filled back in on the next trip. Such a kernel
// settles every sample it writes.
func (d *DelayLine[T]) Settle(n, delay int) {
	delay = max(delay, 1)
	for off := 0; off < n; {
		if d.trip >= delay {
			d.trip, d.lane = 0, (d.lane+1)%settleShare
		}
		run := min(n-off, delay-d.trip) // what the block holds of this trip
		for i := off + (d.lane-d.trip%settleShare+settleShare)%settleShare; i < off+run; i += settleShare {
			j := i
			if j+delay < n {
				// A loop shorter than the block has carried this sample
				// on already: settle it where it has got to.
				j += (n - 1 - j) / delay * delay
			}
			// j is among the block's last delay samples, so at most
			// delay <= len(buf) steps back.
			p := &d.buf[d.back(n-j)]
			*p = settled(*p)
		}
		off, d.trip = off+run, d.trip+run
	}
}

// settled is Settle or Narrow, whichever is x's precision.
func settled[T Sample](x T) T {
	if unsafe.Sizeof(x) == 4 {
		return T(Narrow(float64(x)))
	}
	return T(Settle(float64(x)))
}

// Write pushes one sample into the line.
func (d *DelayLine[T]) Write(x T) {
	d.buf[d.pos] = x
	if d.pos++; d.pos == len(d.buf) {
		d.pos = 0
	}
}

// Read returns the sample written delay steps ago. delay must be in
// [1, Capacity()]; it is clamped otherwise.
func (d *DelayLine[T]) Read(delay int) T {
	return d.buf[d.back(min(max(delay, 1), len(d.buf)))]
}

// Span opens the next run of up to n samples for block processing and
// advances the write head past it. rd[i] is what Read(delay) would return
// and wr[i] is where Write would store at step i of the run; both are
// plain sub-slices of the ring, cut where the tap or the head would wrap,
// so a packet takes one to three runs and the loop over a run carries no
// wrap, clamp or pointer chase. delay must be in [1, Capacity()] — the
// caller clamps it once, where it is set, not per sample.
//
// The caller must, for i ascending, read rd[i] before it writes wr[i], and
// write every wr[i] before it touches the line again. A run longer than
// delay then behaves exactly like the per-sample calls: rd[i] aliases
// wr[i-delay], which the loop has already written.
func (d *DelayLine[T]) Span(delay, n int) (rd, wr []T) {
	buf, pos := d.buf, d.pos // back and reach inlined by hand: Span stays inlinable
	tap := pos - delay
	if tap < 0 {
		tap += len(buf)
	}
	m := min(n, len(buf)-max(tap, pos))
	if d.pos = pos + m; d.pos == len(buf) {
		d.pos = 0
	}
	return buf[tap : tap+m], buf[pos : pos+m]
}

// reach returns how many steps the tap delay samples back and the write
// head can both take before one of them wraps (at least 1).
func (d *DelayLine[T]) reach(delay int) int {
	return len(d.buf) - max(d.back(delay), d.pos)
}

// ReadFrac returns the linearly interpolated sample delay (possibly
// fractional) steps in the past. Used by modulated effects (flanger).
func (d *DelayLine[T]) ReadFrac(delay float64) T {
	// Each tap wraps with its own conditional add, so neither load waits
	// on the other, and the method stays inlinable (CI checks it). A NaN
	// delay passes the clamps and converts to math.MinInt on amd64; the
	// mask brings that to 0, inside the ring, and the fraction carries
	// the NaN into the result, as the masked ring did.
	if delay < 1 {
		delay = 1
	}
	if delay > d.top {
		delay = d.top
	}
	i := int(delay) & math.MaxInt32
	j := d.pos - i
	if j < 0 {
		j += len(d.buf)
	}
	k := j - 1
	if k < 0 {
		k += len(d.buf)
	}
	a := d.buf[j]
	return a + T(delay-float64(i))*(d.buf[k]-a)
}

// String implements fmt.Stringer for debugging.
func (d *DelayLine[T]) String() string {
	return fmt.Sprintf("DelayLine(cap=%d, pos=%d)", len(d.buf), d.pos)
}

// Comb is a feedback comb filter: y[n] = x[n-D] + g*y[n-D]. Building block
// of the Schroeder reverb.
type Comb struct {
	line  *DelayLine[float64]
	delay int
	// Feedback is the loop gain g; |g| < 1 for stability.
	Feedback float64
	// Damp low-pass filters the feedback path (0 = none, towards 1 = dark).
	Damp  float64
	state float64
}

// NewComb returns a comb filter with the given delay in samples (at
// least 1).
func NewComb(delay int, feedback, damp float64) *Comb {
	delay = max(delay, 1)
	return &Comb{
		line:     NewDelayLine[float64](delay),
		delay:    delay,
		Feedback: feedback,
		Damp:     damp,
	}
}

// CombPairAdd runs srcA through comb a and srcB through comb b and adds
// each comb's output to its dst (dst[i] += y[i]), so a parallel bank sums
// into one accumulator comb by comb. A comb's chain is the damping
// one-pole, two dependent operations per sample; the two combs of a stereo
// pair are independent, and one loop over both overlaps their chains. All
// four slices must have one length.
//
// The damping one-pole smears every sample of the loop into the ones
// behind it, so the loop's recursions are not independent and
// DelayLine.Settle's one-in-eight does not do: a comb settles each sample
// on its way back into the line. That is integer work beside a loop that
// waits on the floating-point chain, and costs it about a tenth.
func CombPairAdd(a, b *Comb, dstA, dstB, srcA, srcB []float64) {
	checkPair(dstA, dstB, srcA, srcB)
	sa, ka, da, fa := a.state, 1-a.Damp, a.Damp, a.Feedback
	sb, kb, db, fb := b.state, 1-b.Damp, b.Damp, b.Feedback
	for len(srcA) > 0 {
		// The longest run neither line wraps in; both Spans return m samples.
		m := min(len(srcA), a.line.reach(a.delay), b.line.reach(b.delay))
		rdA, wrA := a.line.Span(a.delay, m)
		rdB, wrB := b.line.Span(b.delay, m)
		rdA, wrA, rdB, wrB = rdA[:m], wrA[:m], rdB[:m], wrB[:m]
		xa, xb, ya, yb := srcA[:m], srcB[:m], dstA[:m], dstB[:m]
		for i, out := range rdA {
			sa = out*ka + sa*da
			wrA[i] = Settle(xa[i] + sa*fa)
			ya[i] += out
			out = rdB[i]
			sb = out*kb + sb*db
			wrB[i] = Settle(xb[i] + sb*fb)
			yb[i] += out
		}
		srcA, srcB, dstA, dstB = srcA[m:], srcB[m:], dstA[m:], dstB[m:]
	}
	a.state, b.state = Settle(sa), Settle(sb)
}

// Reset clears the comb's history.
func (c *Comb) Reset() {
	c.line.Reset()
	c.state = 0
}

// AllPassDelay is a Schroeder all-pass diffuser:
// y[n] = -g*x[n] + x[n-D] + g*y[n-D].
type AllPassDelay struct {
	line  *DelayLine[float64]
	delay int
	Gain  float64
}

// NewAllPassDelay returns an all-pass stage with the given delay in
// samples (at least 1).
func NewAllPassDelay(delay int, gain float64) *AllPassDelay {
	delay = max(delay, 1)
	return &AllPassDelay{line: NewDelayLine[float64](delay), delay: delay, Gain: gain}
}

// Process runs buf through the all-pass stage in place. The only
// recurrence is through the delay line, D samples back, so the loop is
// bound by arithmetic and needs no pairing.
func (a *AllPassDelay) Process(buf []float64) {
	g, n := a.Gain, len(buf)
	for len(buf) > 0 {
		rd, wr := a.line.Span(a.delay, len(buf))
		run := buf[:len(rd)]
		wr = wr[:len(rd)]
		for i, delayed := range rd {
			x := run[i]
			y := -g*x + delayed
			wr[i] = x + g*y
			run[i] = y
		}
		buf = buf[len(rd):]
	}
	a.line.Settle(n, a.delay)
}

// Reset clears the stage history.
func (a *AllPassDelay) Reset() { a.line.Reset() }
