package dsp

import (
	"math"
	"testing"

	"djstar/internal/synth"
)

// The bit-exactness oracle. The ref* functions below are the per-sample,
// one-section-per-pass forms the kernels had before they were restructured
// into paired, cascaded and block loops, moved here verbatim. Every
// restructured kernel must reproduce its reference exactly — every output
// sample and every piece of carried state compared with == — over 2000
// packets of seeded noise and of the synthetic deck tracks, followed by
// packets of 1, 7, 127 and 128 samples.
//
// The references keep their per-sample loops and end each packet with the
// settle step the kernels end theirs with (settle.go): the tracks fall
// silent every beat, and a state below the floor must become 0 in both.

// refBiquadProcess is Biquad.Process as it was, settled at the end.
func refBiquadProcess(f *Biquad, buf []float64) {
	b0, b1, b2, a1, a2 := f.b0, f.b1, f.b2, f.a1, f.a2
	z1, z2 := f.z1, f.z2
	for i, x := range buf {
		y := b0*x + z1
		z1 = b1*x - a1*y + z2
		z2 = b2*x - a2*y
		buf[i] = y
	}
	f.z1, f.z2 = Settle(z1), Settle(z2)
}

// refDelayWrite and refDelayRead are DelayLine.Write and DelayLine.Read,
// per-call clamp included.
func refDelayWrite(d *DelayLine, x float64) {
	d.buf[d.pos] = x
	d.pos = (d.pos + 1) & d.mask
}

func refDelayRead(d *DelayLine, delay int) float64 {
	if delay < 1 {
		delay = 1
	}
	if delay > len(d.buf) {
		delay = len(d.buf)
	}
	return d.buf[(d.pos-delay)&d.mask]
}

// refCombSample is the former Comb.ProcessSample; what goes back into the
// line is settled, as in CombPairAdd.
func refCombSample(c *Comb, x float64) float64 {
	out := refDelayRead(c.line, c.delay)
	c.state = out*(1-c.Damp) + c.state*c.Damp
	refDelayWrite(c.line, Settle(x+c.state*c.Feedback))
	return out
}

// refAllPassSample is the former AllPassDelay.ProcessSample.
func refAllPassSample(a *AllPassDelay, x float64) float64 {
	delayed := refDelayRead(a.line, a.delay)
	y := -a.Gain*x + delayed
	refDelayWrite(a.line, x+a.Gain*y)
	return y
}

// refCubicResample is the former CubicResample.
func refCubicResample(dst, src []float64, pos, rate float64) float64 {
	n := len(src)
	at := func(i int) float64 {
		if i < 0 {
			return 0
		}
		if i >= n {
			if n == 0 {
				return 0
			}
			return src[n-1]
		}
		return src[i]
	}
	for i := range dst {
		idx := int(math.Floor(pos))
		if idx >= n {
			dst[i] = 0
			pos += rate
			continue
		}
		t := pos - float64(idx)
		p0, p1, p2, p3 := at(idx-1), at(idx), at(idx+1), at(idx+2)
		// Catmull–Rom spline.
		a := -0.5*p0 + 1.5*p1 - 1.5*p2 + 0.5*p3
		b := p0 - 2.5*p1 + 2*p2 - 0.5*p3
		c := -0.5*p0 + 0.5*p2
		dst[i] = ((a*t+b)*t+c)*t + p1
		pos += rate
	}
	return pos
}

// oracleLens is the packet schedule: 2000 standard packets, then the odd
// lengths that exercise a kernel's tail handling.
func oracleLens() []int {
	lens := make([]int, 0, 2400)
	for i := 0; i < 2000; i++ {
		lens = append(lens, 128)
	}
	for i := 0; i < 100; i++ {
		lens = append(lens, 1, 7, 127, 128)
	}
	return lens
}

// oracleStream is one stereo test signal, long enough for oracleLens.
type oracleStream struct {
	name string
	l, r []float64
}

var oracleStreamsCache []oracleStream

// oracleStreams returns seeded noise and two of the synthetic deck tracks.
func oracleStreams() []oracleStream {
	if oracleStreamsCache != nil {
		return oracleStreamsCache
	}
	total := 0
	for _, n := range oracleLens() {
		total += n
	}
	out := []oracleStream{{"noise", synth.WhiteNoise(total, 0.5, 11), synth.WhiteNoise(total, 0.5, 12)}}
	tracks := synth.StandardDeckTracks(4)
	for _, d := range []int{0, 3} {
		a := tracks[d]
		s := oracleStream{a.Name, make([]float64, total), make([]float64, total)}
		for i := range s.l {
			s.l[i], s.r[i] = float64(a.L[i%a.Len()]), float64(a.R[i%a.Len()])
		}
		out = append(out, s)
	}
	oracleStreamsCache = out
	return out
}

// forEachPacket cuts every stream by oracleLens and hands step fresh
// copies of each stereo packet.
func forEachPacket(t *testing.T, step func(t *testing.T, packet int, l, r []float64)) {
	t.Helper()
	for _, s := range oracleStreams() {
		at := 0
		for p, n := range oracleLens() {
			l := append([]float64(nil), s.l[at:at+n]...)
			r := append([]float64(nil), s.r[at:at+n]...)
			step(t, p, l, r)
			at += n
			if t.Failed() {
				t.Fatalf("stream %s: first difference in packet %d (%d samples)", s.name, p, n)
			}
		}
	}
}

// sameSamples reports the first index at which got and want differ.
func sameSamples(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d samples, want %d", what, len(got), len(want))
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s[%d] = %v, want %v", what, i, got[i], want[i])
			return
		}
	}
}

func clone(b []float64) []float64 { return append([]float64(nil), b...) }

// spFilters are the four SP band responses of the DJ Star graph.
func spFilters() []*Biquad {
	return []*Biquad{
		NewBiquad(LowPass, 200, 0.8, 0, 44100),
		NewBiquad(BandPass, 800, 0.8, 0, 44100),
		NewBiquad(BandPass, 3000, 0.8, 0, 44100),
		NewBiquad(HighPass, 8000, 0.8, 0, 44100),
	}
}

func TestOracleProcessPair(t *testing.T) {
	for k := range spFilters() {
		for _, inPlace := range []bool{false, true} {
			fl, fr := spFilters()[k], spFilters()[(k+1)%4]
			refL, refR := *fl, *fr
			forEachPacket(t, func(t *testing.T, _ int, l, r []float64) {
				wantL, wantR := clone(l), clone(r)
				refBiquadProcess(&refL, wantL)
				refBiquadProcess(&refR, wantR)
				dstL, dstR := l, r
				if !inPlace {
					dstL, dstR = make([]float64, len(l)), make([]float64, len(r))
				}
				ProcessPair(fl, fr, dstL, dstR, l, r)
				sameSamples(t, "L", dstL, wantL)
				sameSamples(t, "R", dstR, wantR)
				if *fl != refL || *fr != refR {
					t.Errorf("carried state differs: %+v %+v, want %+v %+v", *fl, *fr, refL, refR)
				}
			})
		}
	}
}

// refEQ runs the three bands of eq as three sequential passes.
func refEQ(eq *ThreeBandEQ, buf []float64) {
	refBiquadProcess(eq.low, buf)
	refBiquadProcess(eq.mid, buf)
	refBiquadProcess(eq.high, buf)
}

func sameEQState(t *testing.T, got, want *ThreeBandEQ) {
	t.Helper()
	if *got.low != *want.low || *got.mid != *want.mid || *got.high != *want.high {
		t.Errorf("EQ carried state differs")
	}
}

func TestOracleThreeBandEQProcess(t *testing.T) {
	eq, ref := NewThreeBandEQ(44100), NewThreeBandEQ(44100)
	eq.SetGains(3, -26, 12)
	ref.SetGains(3, -26, 12)
	forEachPacket(t, func(t *testing.T, _ int, l, _ []float64) {
		want := clone(l)
		refEQ(ref, want)
		eq.Process(l)
		sameSamples(t, "eq", l, want)
		sameEQState(t, eq, ref)
	})
}

func TestOracleProcessEQPair(t *testing.T) {
	eqL, eqR := NewThreeBandEQ(44100), NewThreeBandEQ(44100)
	refL, refR := NewThreeBandEQ(44100), NewThreeBandEQ(44100)
	eqL.SetGains(-4, 2, 6)
	eqR.SetGainsFrom(eqL)
	refL.SetGains(-4, 2, 6)
	refR.SetGains(-4, 2, 6)
	forEachPacket(t, func(t *testing.T, _ int, l, r []float64) {
		wantL, wantR := clone(l), clone(r)
		refEQ(refL, wantL)
		refEQ(refR, wantR)
		ProcessEQPair(eqL, eqR, l, r)
		sameSamples(t, "L", l, wantL)
		sameSamples(t, "R", r, wantR)
		sameEQState(t, eqL, refL)
		sameEQState(t, eqR, refR)
	})
}

func TestSetCoeffsFromCopiesConfigureAndKeepsState(t *testing.T) {
	src := NewBiquad(Peaking, 1200, 0.7, 5, 44100)
	dst := NewBiquad(LowPass, 300, 0.9, 0, 44100)
	dst.z1, dst.z2 = 0.25, -0.5
	dst.SetCoeffsFrom(src)
	want := *src
	want.z1, want.z2 = 0.25, -0.5
	if *dst != want {
		t.Fatalf("SetCoeffsFrom gave %+v, want %+v", *dst, want)
	}
	a, b := NewThreeBandEQ(44100), NewThreeBandEQ(44100)
	c := NewThreeBandEQ(44100)
	a.SetGains(-30, 4, 20)
	c.SetGains(-30, 4, 20)
	b.SetGainsFrom(a)
	sameEQState(t, b, c)
	if lo, mid, hi := b.Gains(); lo != EQGainMin || mid != 4 || hi != EQGainMax {
		t.Fatalf("SetGainsFrom gains = %v %v %v", lo, mid, hi)
	}
}

func sameLine(t *testing.T, got, want *DelayLine) {
	t.Helper()
	if got.pos != want.pos || got.trip != want.trip || got.lane != want.lane {
		t.Errorf("delay line head at %d, trip %d, lane %d, want %d, %d, %d", got.pos, got.trip, got.lane, want.pos, want.trip, want.lane)
	}
	sameSamples(t, "delay line history", got.buf, want.buf)
}

// TestOracleDelayLineSpan drives one line with Read/Write and a twin with
// Span, over delays on both sides of the run length and at both ends of
// the legal range.
func TestOracleDelayLineSpan(t *testing.T) {
	rng := synth.NewRand(5)
	for _, capacity := range []int{1, 2, 64, 100, 2048} {
		ref, line := NewDelayLine(capacity), NewDelayLine(capacity)
		for step := 0; step < 400; step++ {
			delay := 1 + rng.Intn(line.Capacity())
			if step%7 == 0 {
				delay = line.Capacity()
			}
			vals := make([]float64, 1+rng.Intn(300))
			var want, got []float64
			for i := range vals {
				vals[i] = rng.Float64()
				want = append(want, refDelayRead(ref, delay))
				refDelayWrite(ref, vals[i])
			}
			for left := vals; len(left) > 0; {
				rd, wr := line.Span(delay, len(left))
				if len(rd) == 0 || len(rd) != len(wr) {
					t.Fatalf("Span(%d, %d) gave runs of %d and %d", delay, len(left), len(rd), len(wr))
				}
				for i := range rd {
					got = append(got, rd[i])
					wr[i] = left[i]
				}
				left = left[len(rd):]
			}
			sameSamples(t, "tap", got, want)
			sameLine(t, line, ref)
			if t.Failed() {
				t.Fatalf("capacity %d, step %d, delay %d, n %d", capacity, step, delay, len(vals))
			}
		}
	}
}

func TestOracleCombPairAdd(t *testing.T) {
	for _, delays := range [][2]int{{1309, 1332}, {1927, 1950}, {74, 81}, {64, 1}, {0, 128}} {
		a, b := NewComb(delays[0], 0.78, 0.2), NewComb(delays[1], 0.93, 0.35)
		refA, refB := NewComb(delays[0], 0.78, 0.2), NewComb(delays[1], 0.93, 0.35)
		forEachPacket(t, func(t *testing.T, p int, l, r []float64) {
			// Accumulators start from what an earlier comb left there.
			accL, accR := clone(r), clone(l)
			wantL, wantR := clone(accL), clone(accR)
			for i := range l {
				wantL[i] += refCombSample(refA, l[i])
				wantR[i] += refCombSample(refB, r[i])
			}
			refA.state, refB.state = Settle(refA.state), Settle(refB.state)
			CombPairAdd(a, b, accL, accR, l, r)
			sameSamples(t, "A", accL, wantL)
			sameSamples(t, "B", accR, wantR)
			if a.state != refA.state || b.state != refB.state {
				t.Errorf("damping state %v %v, want %v %v", a.state, b.state, refA.state, refB.state)
			}
			if p%97 == 0 { // the whole ring, now and then
				sameLine(t, a.line, refA.line)
				sameLine(t, b.line, refB.line)
			}
		})
		sameLine(t, a.line, refA.line)
		sameLine(t, b.line, refB.line)
	}
}

func TestOracleAllPassDelayProcess(t *testing.T) {
	for _, delay := range []int{220, 74, 81, 64, 1, 0} {
		a, ref := NewAllPassDelay(delay, 0.7), NewAllPassDelay(delay, 0.7)
		forEachPacket(t, func(t *testing.T, _ int, l, _ []float64) {
			want := clone(l)
			for i := range want {
				want[i] = refAllPassSample(ref, want[i])
			}
			ref.line.Settle(len(want), ref.delay)
			a.Process(l)
			sameSamples(t, "all-pass", l, want)
		})
		sameLine(t, a.line, ref.line)
	}
}

// TestOracleCubicResample sweeps start positions and rates across both
// edges of the source, so packets fall on the interior path, on the edge
// path and on the boundary between them.
func TestOracleCubicResample(t *testing.T) {
	rng := synth.NewRand(9)
	for _, s := range oracleStreams() {
		for _, srcLen := range []int{0, 1, 3, 4, 5, 131, 512, 4096} {
			src := s.l[1000 : 1000+srcLen]
			for trial := 0; trial < 400; trial++ {
				n := []int{1, 7, 127, 128}[trial%4]
				pos := (rng.Float64()*1.2 - 0.1) * float64(srcLen+4)
				rate := (rng.Float64() - 0.5) * 4
				switch trial % 10 {
				case 0:
					rate = 0
				case 1:
					pos, rate = 1, 1 // first interior position
				case 2:
					pos = float64(srcLen) - 3 - float64(n)*rate // far end on the boundary
				case 3:
					pos, rate = 1+float64(n), -1 // walks back to position 1
				case 4:
					rate = 1e-17 // absorbed: the position never moves
				}
				got, want := make([]float64, n), make([]float64, n)
				gotPos := CubicResample(got, src, pos, rate)
				wantPos := refCubicResample(want, src, pos, rate)
				sameSamples(t, "resampled", got, want)
				if gotPos != wantPos {
					t.Errorf("returned position %v, want %v", gotPos, wantPos)
				}
				if t.Failed() {
					t.Fatalf("stream %s, len(src) %d, pos %v, rate %v, n %d", s.name, srcLen, pos, rate, n)
				}
			}
		}
	}
}
