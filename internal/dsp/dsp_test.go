package dsp

import (
	"math"
	"testing"
	"testing/quick"

	"djstar/internal/synth"
)

func TestThreeBandEQFlatByDefault(t *testing.T) {
	eq := NewThreeBandEQ(44100)
	for _, freq := range []float64{50, 500, 2000, 10000} {
		if m := eqMagnitudeAt(eq, freq); math.Abs(m-1) > 0.02 {
			t.Fatalf("flat EQ magnitude at %v Hz = %v", freq, m)
		}
	}
}

func TestThreeBandEQKill(t *testing.T) {
	eq := NewThreeBandEQ(44100)
	eq.SetGains(EQGainMin, 0, 0) // low kill
	if m := eqMagnitudeAt(eq, 60); m > 0.12 {
		t.Fatalf("low kill leaves %v at 60 Hz", m)
	}
	if m := eqMagnitudeAt(eq, 10000); math.Abs(m-1) > 0.1 {
		t.Fatalf("low kill affects highs: %v", m)
	}
}

func TestThreeBandEQClampsGain(t *testing.T) {
	eq := NewThreeBandEQ(44100)
	eq.SetGains(-100, +100, 0)
	l, m, h := eq.lowDB, eq.midDB, eq.highDB
	if l != EQGainMin || m != EQGainMax || h != 0 {
		t.Fatalf("Gains = %v %v %v, want clamped", l, m, h)
	}
}

func TestThreeBandEQProcessStable(t *testing.T) {
	eq := NewThreeBandEQ(44100)
	eq.SetGains(6, -6, 12)
	buf := synth.WhiteNoise(44100, 0.5, 3)
	eq.Process(buf)
	for i, s := range buf {
		if math.IsNaN(s) || math.Abs(s) > 20 {
			t.Fatalf("unstable EQ output at %d: %v", i, s)
		}
	}
}

func TestDelayLineRead(t *testing.T) {
	d := NewDelayLine[float64](8)
	for i := 1; i <= 8; i++ {
		d.Write(float64(i))
	}
	if got := d.Read(1); got != 8 {
		t.Fatalf("Read(1) = %v, want 8", got)
	}
	if got := d.Read(8); got != 1 {
		t.Fatalf("Read(8) = %v, want 1", got)
	}
	// Clamping.
	if got := d.Read(0); got != 8 {
		t.Fatalf("Read(0) clamps to 1, got %v", got)
	}
	if got := d.Read(100); got != 1 {
		t.Fatalf("Read(100) clamps to cap, got %v", got)
	}
}

func TestDelayLineFracInterpolates(t *testing.T) {
	d := NewDelayLine[float64](8)
	d.Write(0)
	d.Write(10)
	// 1 step ago = 10, 2 steps ago = 0; 1.5 steps ago = 5.
	if got := d.ReadFrac(1.5); math.Abs(got-5) > 1e-12 {
		t.Fatalf("ReadFrac(1.5) = %v, want 5", got)
	}
}

func TestDelayLineCapacityIsExact(t *testing.T) {
	for _, c := range []int{1, 100, 1414, 23625} {
		if got := NewDelayLine[float32](c).Capacity(); got != c {
			t.Errorf("NewDelayLine(%d).Capacity() = %d", c, got)
		}
	}
	if c := NewDelayLine[float64](0).Capacity(); c != 1 {
		t.Fatalf("zero capacity line holds %d, want 1", c)
	}
}

// TestDelayLineGrowKeepsHistory grows a line that has wrapped (head
// mid-ring) and one that has not: every sample it held reads back at its
// delay, the new slots read 0, a smaller capacity changes nothing, and the
// grown line keeps running like a line built at the larger size.
func TestDelayLineGrowKeepsHistory(t *testing.T) {
	for _, written := range []int{5, 8 + 3} {
		d, big := NewDelayLine[float64](8), NewDelayLine[float64](20)
		for i := 1; i <= written; i++ {
			d.Write(float64(i))
			if i > written-8 {
				big.Write(float64(i))
			}
		}
		d.Grow(4)
		if d.Capacity() != 8 {
			t.Fatalf("Grow(4) on a line of 8: capacity %d", d.Capacity())
		}
		d.Grow(20)
		if d.Capacity() != 20 {
			t.Fatalf("Grow(20): capacity %d, want 20", d.Capacity())
		}
		for i := 0; i < 40; i++ {
			for k := 1; k <= 20; k++ {
				if got, want := d.Read(k), big.Read(k); got != want {
					t.Fatalf("%d written, step %d: Read(%d) = %v, want %v", written, i, k, got, want)
				}
			}
			rd, wr := d.Span(9, 1)
			wr[0] = rd[0] + 100
			big.Write(big.Read(9) + 100)
		}
	}
}

func TestDelayLineResetAndString(t *testing.T) {
	d := NewDelayLine[float64](4)
	d.Write(5)
	d.Reset()
	if d.Read(1) != 0 {
		t.Fatal("Reset did not clear history")
	}
	if d.String() == "" {
		t.Fatal("String empty")
	}
}

func TestCombImpulseResponse(t *testing.T) {
	c, twin := NewComb(4, 0.5, 0), NewComb(4, 0.5, 0)
	// Impulse: output is delayed copies with geometric decay.
	in := make([]float64, 16)
	in[0] = 1
	out, out2 := make([]float64, 16), make([]float64, 16)
	CombPairAdd(c, twin, out, out2, in, in)
	// y[4] = 1, y[8] = 0.5, y[12] = 0.25.
	if math.Abs(out[4]-1) > 1e-12 || math.Abs(out[8]-0.5) > 1e-12 || math.Abs(out[12]-0.25) > 1e-12 {
		t.Fatalf("comb impulse response wrong: %v", out)
	}
	c.Reset()
	twin.Reset()
	out[0] = 0
	CombPairAdd(c, twin, out[:1], out2[:1], in[1:2], in[1:2])
	if out[0] != 0 {
		t.Fatal("comb reset failed")
	}
}

func TestAllPassDelayEnergyPreserving(t *testing.T) {
	a := NewAllPassDelay(5, 0.5)
	buf := synth.WhiteNoise(8192, 0.7, 4)
	inE := 0.0
	for _, x := range buf {
		inE += x * x
	}
	a.Process(buf)
	outE := 0.0
	for _, y := range buf {
		outE += y * y
	}
	// All-pass: asymptotically equal energy (allow a few percent for edge).
	if math.Abs(inE-outE)/inE > 0.05 {
		t.Fatalf("all-pass energy mismatch: in %v out %v", inE, outE)
	}
	a.Reset()
}

func TestLimiterCeiling(t *testing.T) {
	l := NewLimiter(0.5, 1, 1000, 44100)
	buf := make([]float64, 4096)
	for i := range buf {
		buf[i] = math.Sin(2*math.Pi*float64(i)/50) * 2 // peaks at 2.0
	}
	l.Process(buf)
	// After the 1-sample attack settles, nothing should exceed threshold
	// noticeably.
	for i := 64; i < len(buf); i++ {
		if math.Abs(buf[i]) > 0.55 {
			t.Fatalf("limited sample %d = %v, want <= ~0.5", i, buf[i])
		}
	}
	if g := l.gain; g <= 0 || g > 1 {
		t.Fatalf("limiter gain = %v", g)
	}
}

func TestLimiterTransparentBelowThreshold(t *testing.T) {
	l := NewLimiter(0.9, 8, 800, 44100)
	in := synth.SineBuffer(440, 2048, 44100)
	for i := range in {
		in[i] *= 0.3
	}
	buf := make([]float64, len(in))
	copy(buf, in)
	l.Process(buf)
	for i := range buf {
		if math.Abs(buf[i]-in[i]) > 1e-9 {
			t.Fatalf("limiter altered sub-threshold signal at %d: %v vs %v", i, buf[i], in[i])
		}
	}
}

func TestHardClip(t *testing.T) {
	buf := []float64{0.5, 1.5, -2, 0.9, -0.95}
	n := HardClip(buf, 1)
	if n != 2 {
		t.Fatalf("clipped count = %d, want 2", n)
	}
	want := []float64{0.5, 1, -1, 0.9, -0.95}
	for i := range want {
		if buf[i] != want[i] {
			t.Fatalf("HardClip gave %v, want %v", buf, want)
		}
	}
}

func TestEqualPowerPan(t *testing.T) {
	l, r := EqualPowerPan(0)
	if math.Abs(l-r) > 1e-12 || math.Abs(l*l+r*r-1) > 1e-12 {
		t.Fatalf("center pan gains %v %v", l, r)
	}
	l, r = EqualPowerPan(-1)
	if math.Abs(l-1) > 1e-12 || math.Abs(r) > 1e-12 {
		t.Fatalf("hard left gains %v %v", l, r)
	}
	l, r = EqualPowerPan(2) // clamps to +1
	if math.Abs(r-1) > 1e-12 || math.Abs(l) > 1e-12 {
		t.Fatalf("hard right gains %v %v", l, r)
	}
}

func TestCrossfadeConstantPower(t *testing.T) {
	f := func(x float64) bool {
		x = math.Abs(math.Mod(x, 1))
		a, b := CrossfadeGains(x)
		return math.Abs(a*a+b*b-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	a, b := CrossfadeGains(0)
	if a != 1 || b != 0 {
		t.Fatalf("x=0 gains %v %v", a, b)
	}
	a, b = CrossfadeGains(5)
	if math.Abs(b-1) > 1e-12 || math.Abs(a) > 1e-12 {
		t.Fatalf("clamped x=5 gains %v %v", a, b)
	}
}

func TestFaderCurve(t *testing.T) {
	if FaderCurve(-1) != 0 || FaderCurve(2) != 1 {
		t.Fatal("FaderCurve clamp failed")
	}
	if FaderCurve(0.5) != 0.25 {
		t.Fatalf("FaderCurve(0.5) = %v", FaderCurve(0.5))
	}
}

func TestSmoothedGainRampsWithoutJump(t *testing.T) {
	s := NewSmoothedGain(0)
	buf := make([]float64, 100)
	for i := range buf {
		buf[i] = 1
	}
	s.Apply(buf, 1) // first call snaps to target
	if s.current != 1 {
		t.Fatalf("Current = %v, want 1", s.current)
	}
	for i := range buf {
		buf[i] = 1
	}
	s.Apply(buf, 0) // ramp from 1 to 0
	// Monotone non-increasing ramp.
	for i := 1; i < len(buf); i++ {
		if buf[i] > buf[i-1]+1e-12 {
			t.Fatalf("ramp not monotone at %d: %v > %v", i, buf[i], buf[i-1])
		}
	}
	if math.Abs(buf[len(buf)-1]) > 0.02 {
		t.Fatalf("ramp end = %v, want ~0", buf[len(buf)-1])
	}
	// Empty buffer still updates the target.
	s.Apply(nil, 0.5)
	if s.current != 0.5 {
		t.Fatalf("Current after empty Apply = %v", s.current)
	}
}

func TestCubicResampleInterpolatesLinearSignalExactly(t *testing.T) {
	// Catmull-Rom reproduces linear ramps exactly (away from edges).
	src := make([]float64, 32)
	for i := range src {
		src[i] = float64(i)
	}
	dst := make([]float64, 20)
	CubicResample(dst, src, 2, 0.75)
	for i := range dst {
		want := 2 + 0.75*float64(i)
		if math.Abs(dst[i]-want) > 1e-9 {
			t.Fatalf("dst[%d] = %v, want %v", i, dst[i], want)
		}
	}
}

func TestCubicResampleEdges(t *testing.T) {
	src := []float64{1, 2}
	dst := make([]float64, 6)
	CubicResample(dst, src, 0, 1)
	for i := 2; i < len(dst); i++ {
		if dst[i] != 0 {
			t.Fatalf("past-end cubic sample %d = %v", i, dst[i])
		}
	}
	// Empty source is safe.
	CubicResample(dst, nil, 0, 1)
}
