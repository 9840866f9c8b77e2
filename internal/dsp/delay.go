package dsp

import "fmt"

// DelayLine is a circular buffer supporting fixed and fractionally
// interpolated taps. Echo, flanger and phaser effects are built on it.
type DelayLine struct {
	buf  []float64
	pos  int // next write position, always in [0, len(buf))
	mask int // len(buf)-1; len(buf) is always a power of two
	trip int // Settle: samples written on the current trip round the loop
	lane int // Settle: which sample in every settleShare this trip settles
}

// NewDelayLine returns a delay line holding capacity samples of history.
// Capacity is rounded up to the next power of two, so every tap wraps with
// the mask instead of a modulo and Span can tell how far a tap and the
// write head run before either reaches the end of the buffer.
func NewDelayLine(capacity int) *DelayLine {
	if capacity < 1 {
		capacity = 1
	}
	size := 1
	for size < capacity {
		size <<= 1
	}
	return &DelayLine{buf: make([]float64, size), mask: size - 1}
}

// Capacity returns the usable history length in samples.
func (d *DelayLine) Capacity() int { return len(d.buf) }

// Grow raises the capacity to at least capacity samples, keeping every
// sample the line holds at its delay; the new, older slots read 0. It
// allocates: call it on the control path, never in a block.
func (d *DelayLine) Grow(capacity int) {
	if capacity > len(d.buf) {
		g := NewDelayLine(capacity) // unrolled oldest first, head at len(d.buf)
		copy(g.buf[copy(g.buf, d.buf[d.pos:]):], d.buf[:d.pos])
		d.buf, d.mask, d.pos = g.buf, g.mask, len(d.buf)
	}
}

// Reset zeroes the history.
func (d *DelayLine) Reset() {
	for i := range d.buf {
		d.buf[i] = 0
	}
	d.pos, d.trip, d.lane = 0, 0, 0
}

// settleShare is the number of trips round a feedback loop within which
// Settle reaches every sample travelling it.
const settleShare = 8

// Settle is the delay-line form of the package-level Settle, for a line
// that closes a feedback loop through an integer tap delay samples back
// and nothing else (an all-pass diffuser, an echo). The kernel calls it
// once per block, after writing n samples.
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
// one block holds) — 0.45^8 = 2e-3 for the echo, the weakest loop — so a
// value is never more than a few orders under the floor before it becomes
// 0, and the subnormal range stays 240 orders away.
//
// A loop that mixes neighbouring samples cannot use this — an
// interpolated tap (the flanger), a filter in the loop (the comb's
// damping): each sample it writes blends several recursions, so the zeros
// a lane leaves are filled back in on the next trip. Such a kernel
// settles every sample it writes.
func (d *DelayLine) Settle(n, delay int) {
	delay = max(delay, 1)
	first := d.pos - n // ring index of the block's first sample, before masking
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
			p := &d.buf[(first+j)&d.mask]
			*p = Settle(*p)
		}
		off, d.trip = off+run, d.trip+run
	}
}

// Write pushes one sample into the line.
func (d *DelayLine) Write(x float64) {
	d.buf[d.pos] = x
	d.pos = (d.pos + 1) & d.mask
}

// Read returns the sample written delay steps ago. delay must be in
// [1, Capacity()]; it is clamped otherwise.
func (d *DelayLine) Read(delay int) float64 {
	if delay < 1 {
		delay = 1
	}
	if delay > len(d.buf) {
		delay = len(d.buf)
	}
	return d.buf[(d.pos-delay)&d.mask]
}

// Span opens the next run of up to n samples for block processing and
// advances the write head past it. rd[i] is what Read(delay) would return
// and wr[i] is where Write would store at step i of the run; both are
// plain sub-slices of the ring, cut where the tap or the head would wrap,
// so a packet takes one to three runs and the loop over a run carries no
// mask, clamp or pointer chase. delay must be in [1, Capacity()] — the
// caller clamps it once, where it is set, not per sample.
//
// The caller must, for i ascending, read rd[i] before it writes wr[i], and
// write every wr[i] before it touches the line again. A run longer than
// delay then behaves exactly like the per-sample calls: rd[i] aliases
// wr[i-delay], which the loop has already written.
func (d *DelayLine) Span(delay, n int) (rd, wr []float64) {
	tap := (d.pos - delay) & d.mask
	m := min(n, d.reach(delay))
	rd, wr = d.buf[tap:tap+m], d.buf[d.pos:d.pos+m]
	d.pos = (d.pos + m) & d.mask
	return rd, wr
}

// reach returns how many steps the tap delay samples back and the write
// head can both take before one of them wraps (at least 1).
func (d *DelayLine) reach(delay int) int {
	return len(d.buf) - max((d.pos-delay)&d.mask, d.pos)
}

// ReadFrac returns the linearly interpolated sample delay (possibly
// fractional) steps in the past. Used by modulated effects (flanger).
func (d *DelayLine) ReadFrac(delay float64) float64 {
	if delay < 1 {
		delay = 1
	}
	maxDelay := float64(len(d.buf) - 1)
	if delay > maxDelay {
		delay = maxDelay
	}
	i := int(delay)
	frac := delay - float64(i)
	a := d.buf[(d.pos-i)&d.mask]
	b := d.buf[(d.pos-i-1)&d.mask]
	return a + frac*(b-a)
}

// String implements fmt.Stringer for debugging.
func (d *DelayLine) String() string {
	return fmt.Sprintf("DelayLine(cap=%d, pos=%d)", len(d.buf), d.pos)
}

// Comb is a feedback comb filter: y[n] = x[n-D] + g*y[n-D]. Building block
// of the Schroeder reverb.
type Comb struct {
	line  *DelayLine
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
		line:     NewDelayLine(delay),
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
	line  *DelayLine
	delay int
	Gain  float64
}

// NewAllPassDelay returns an all-pass stage with the given delay in
// samples (at least 1).
func NewAllPassDelay(delay int, gain float64) *AllPassDelay {
	delay = max(delay, 1)
	return &AllPassDelay{line: NewDelayLine(delay), delay: delay, Gain: gain}
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
