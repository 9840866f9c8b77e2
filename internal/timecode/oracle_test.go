package timecode

import (
	"math"
	"testing"

	"djstar/internal/audio"
)

// refGenerate is Generator.Generate as it was before the carrier pair came
// from one Sincos and the bit lookup lost its per-sample wrap — moved here
// verbatim. Generate must leave the needle where it leaves it, bit for
// bit, and its samples within a stated tolerance of its samples.
func refGenerate(g *Generator, l, r []float64) {
	inc := CarrierHz / float64(g.rate) * g.Speed()
	n := float64(g.seq.Len())
	for i := range l {
		cycle := int(math.Floor(g.phase))
		amp := bitLow
		if g.seq.Bit(cycle) == 1 {
			amp = bitHigh
		}
		ang := 2 * math.Pi * g.phase
		l[i] = amp * math.Sin(ang)
		r[i] = amp * math.Cos(ang)
		g.phase += inc
		if g.phase >= n {
			g.phase -= n
		} else if g.phase < 0 {
			g.phase += n
		}
	}
}

// TestOracleGenerate runs Generate beside refGenerate. The needle is the
// only state and advances by the same additions, so it must match bit for
// bit. The samples come from a rotor reseeded at every packet, so they are
// held to a tolerance: for |speed| ≤ 16, 2⁻²⁶ absolute. The largest part
// of the difference is the reference's own: it rounds the needle at every
// sample (an ulp is 2⁻³⁷ of a cycle near 65 535 cycles) and 2π·phase,
// while the rotor steps by the exact increment; the worst measured on
// amd64 is 2⁻²⁸·⁶. At ±4e6 the carrier is aliased far above Nyquist and a
// needle ulp is about 2⁻¹⁷ of a cycle, so the samples are only required
// to stay within bitHigh, plus the rotor's own drift over a packet.
func TestOracleGenerate(t *testing.T) {
	seq := NewSequence()
	lens := make([]int, 0, 2400)
	for i := 0; i < 2000; i++ {
		lens = append(lens, 128)
	}
	for i := 0; i < 100; i++ {
		lens = append(lens, 1, 7, 127, 128)
	}
	n := float64(seq.Len())
	cases := []struct {
		speed, start float64
	}{
		{1, 0}, {0.97, 0}, {-1, 0}, {0, 123.456},
		{1, n - 300},   // runs off the end of the sequence and wraps
		{-1, 200},      // runs off the start and wraps
		{-0.5, 1e-13},  // a step to just below 0 wraps to exactly n
		{1.5, n - 0.5}, // starts in the last cycle
		{16, n - 4000}, // the fastest speed held to the tolerance
		{-16, 4000},
		{4e6, 17},  // more than a whole sequence per sample: phase stays above n
		{-4e6, 17}, // and stays below 0
	}
	const tol = 0x1p-26
	worst := 0.0
	for _, c := range cases {
		g, ref := NewGenerator(seq, 44100), NewGenerator(seq, 44100)
		g.SetSpeed(c.speed)
		ref.SetSpeed(c.speed)
		g.Seek(c.start)
		ref.Seek(c.start)
		aliased := math.Abs(c.speed) > 16
		for p, m := range lens {
			l, r := make([]float64, m), make([]float64, m)
			wantL, wantR := make([]float64, m), make([]float64, m)
			g.Generate(l, r)
			refGenerate(ref, wantL, wantR)
			for i := range l {
				if aliased {
					if math.Abs(l[i]) > bitHigh+0x1p-40 || math.Abs(r[i]) > bitHigh+0x1p-40 {
						t.Fatalf("speed %v from %v: packet %d sample %d = (%v, %v), beyond bitHigh",
							c.speed, c.start, p, i, l[i], r[i])
					}
					continue
				}
				e := math.Max(math.Abs(l[i]-wantL[i]), math.Abs(r[i]-wantR[i]))
				worst = math.Max(worst, e)
				if e > tol {
					t.Fatalf("speed %v from %v: packet %d sample %d = (%v, %v), want (%v, %v) within %g",
						c.speed, c.start, p, i, l[i], r[i], wantL[i], wantR[i], tol)
				}
			}
			if g.phase != ref.phase {
				t.Fatalf("speed %v from %v: packet %d leaves the needle at %v, want %v",
					c.speed, c.start, p, g.phase, ref.phase)
			}
		}
	}
	t.Logf("worst sample error for |speed| <= 16: 2^%.1f", math.Log2(worst))
}

// TestDecoderAgreesWithReferenceSignal decodes Generate's signal and
// refGenerate's side by side. Lock, position and direction must agree on
// every packet. The speed estimate may differ a little: at exactly whole
// cycles the reference's sin(2π·phase) is a rounding residue of about
// ±1e-16, and the rotor's can have the other sign, which moves one zero
// crossing by one sample. That lengthens one cycle by a sample and
// shortens a neighbour by one. A cycle is at least m = ⌊nominal/speed⌋
// samples long, so one such shift changes an instantaneous estimate by at
// most nominal/(m(m−1)), and the estimate's EMA (gain 0.25) by a quarter
// of that; the difference then only decays.
func TestDecoderAgreesWithReferenceSignal(t *testing.T) {
	const packets = 20000
	nominal := float64(audio.SampleRate) / CarrierHz
	for _, speed := range []float64{1, 0.97, -1, 1.5} {
		g, ref := NewGenerator(sharedSeq, audio.SampleRate), NewGenerator(sharedSeq, audio.SampleRate)
		d, dref := NewDecoder(sharedSeq, audio.SampleRate), NewDecoder(sharedSeq, audio.SampleRate)
		g.SetSpeed(speed)
		ref.SetSpeed(speed)
		m := math.Floor(nominal / math.Abs(speed))
		bound := 0.25 * nominal / (m * (m - 1))
		got, want := audio.NewStereo(audio.PacketSize), audio.NewStereo(audio.PacketSize)
		worst := 0.0
		for p := 0; p < packets; p++ {
			g.Generate(got.L, got.R)
			refGenerate(ref, want.L, want.R)
			d.Decode(got.L, got.R)
			dref.Decode(want.L, want.R)
			pos, ok := d.Position()
			wpos, wok := dref.Position()
			if ok != wok || pos != wpos || d.Direction() != dref.Direction() {
				t.Fatalf("speed %v packet %d: locked %v position %d direction %d, reference %v %d %d",
					speed, p, ok, pos, d.Direction(), wok, wpos, dref.Direction())
			}
			diff := math.Abs(d.Speed() - dref.Speed())
			worst = math.Max(worst, diff)
			if diff > bound {
				t.Fatalf("speed %v packet %d: speed estimate %v, reference %v: more than %v apart",
					speed, p, d.Speed(), dref.Speed(), bound)
			}
		}
		t.Logf("speed %v: worst speed-estimate difference %.4g (bound %.4g)", speed, worst, bound)
	}
}

// TestSincosMatchesSinAndCos holds math.Sincos to math.Sin and math.Cos
// over the carrier's whole argument range, finer than any packet steps
// through it, and on negative arguments: the rotor is seeded with Sincos,
// so each packet's first sample is the reference's, bit for bit.
func TestSincosMatchesSinAndCos(t *testing.T) {
	limit := 2 * math.Pi * float64(1<<PositionBits)
	for x := -50.0; x < limit; x += 0.0371 {
		s, c := math.Sincos(x)
		if s != math.Sin(x) || c != math.Cos(x) {
			t.Fatalf("Sincos(%v) = (%v, %v), want (%v, %v)", x, s, c, math.Sin(x), math.Cos(x))
		}
	}
}
