package dsp

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"djstar/internal/dsp/dsptest"
	"djstar/internal/synth"
)

// The silence sweep: every recursive kernel of the package goes through
// noise, silence and noise again (dsptest.Sweep), and what it holds is
// checked by value after every packet. Each ZeroBy is derived from the
// kernel's own slowest pole or feedback loop.

var (
	sweepNoiseL = synth.WhiteNoise(64*dsptest.PacketSize, 0.5, 31)
	sweepNoiseR = synth.WhiteNoise(64*dsptest.PacketSize, 0.5, 32)
)

func TestSettle(t *testing.T) {
	if settleFloor != dsptest.Floor {
		t.Fatalf("settleFloor = %g, dsptest.Floor = %g", settleFloor, dsptest.Floor)
	}
	below := math.Nextafter(settleFloor, 0)
	for _, c := range []struct{ in, want float64 }{
		{0, 0}, {1, 1}, {-0.25, -0.25},
		{settleFloor, settleFloor}, {-settleFloor, -settleFloor},
		{below, 0}, {-below, 0},
		{5e-324, 0}, {-2.2e-308, 0}, {1e-300, 0},
		{math.Inf(1), math.Inf(1)}, {math.Inf(-1), math.Inf(-1)},
	} {
		if got := Settle(c.in); got != c.want {
			t.Errorf("Settle(%g) = %g, want %g", c.in, got, c.want)
		}
	}
	if !math.IsNaN(Settle(math.NaN())) {
		t.Error("Settle(NaN) is not NaN")
	}
	// The floor's two derivations (settle.go): inaudible, and out of reach
	// of the subnormal range for one packet of the fastest decay, squared.
	if settleFloor > 1e-5*0x1p-53*1e-30 {
		t.Errorf("floor %g is not thirty orders under the rounding of a -100 dB sample", settleFloor)
	}
	if sq := math.Pow(settleFloor*math.Pow(0.2, dsptest.PacketSize), 2); dsptest.Subnormal(sq) || sq == 0 {
		t.Errorf("a state at the floor, a packet of the comb's 0.2 damping and an RMS square reach %g", sq)
	}
}

// TestNarrow holds the float32 floor to its derivation (settle.go) and
// Narrow to storing 0 or a normal float32, never a subnormal.
func TestNarrow(t *testing.T) {
	if settleFloor32 != dsptest.Floor32 {
		t.Fatalf("settleFloor32 = %g, dsptest.Floor32 = %g", settleFloor32, dsptest.Floor32)
	}
	// A recursion settled at the floor, then settleShare trips of the
	// weakest loop gain, is still a normal float32; and the floor is no
	// more than a rounding above that bound.
	need := 0x1p-126 / math.Pow(0.45, settleShare)
	if settleFloor32 < need || settleFloor32 > need*1.01 {
		t.Errorf("settleFloor32 = %g, want 2^-126/0.45^%d = %g rounded up", settleFloor32, settleShare, need)
	}
	if settleFloor32 > 0x1p-24*1e-25 {
		t.Errorf("floor %g is not twenty-five orders under the rounding of a full-scale float32", settleFloor32)
	}
	below := math.Nextafter(settleFloor32, 0)
	for _, c := range []struct {
		in   float64
		want float32
	}{
		{0, 0}, {1, 1}, {-0.25, -0.25}, {1.0 / 3, float32(1.0 / 3)},
		{settleFloor32, float32(settleFloor32)}, {-settleFloor32, -float32(settleFloor32)},
		{below, 0}, {-below, 0}, {1e-40, 0}, {-0x1p-126, 0}, {1e-60, 0}, {5e-324, 0},
		{math.Inf(-1), float32(math.Inf(-1))},
	} {
		if got := Narrow(c.in); got != c.want || math.Signbit(float64(got)) != math.Signbit(float64(c.want)) && c.want != 0 {
			t.Errorf("Narrow(%g) = %g, want %g", c.in, got, c.want)
		}
	}
	if !math.IsNaN(float64(Narrow(math.NaN()))) {
		t.Error("Narrow(NaN) is not NaN")
	}
	for _, x := range sweepNoiseL {
		for _, scale := range []float64{1, 1e-36, 1e-38, 1e-41, 1e-46} {
			if y := Narrow(x * scale); dsptest.Subnormal32(y) {
				t.Fatalf("Narrow(%g) = %g is subnormal", x*scale, y)
			}
		}
	}
}

// TestFloat32LineSettles is TestDelayLineSettleReachesEveryRecursion's
// loop on a float32 line, at its own floor: a unit-gain loop seeded above,
// at and below settleFloor32 must keep what is at or above it and hold
// exactly 0 for the rest after settleShare trips.
func TestFloat32LineSettles(t *testing.T) {
	f := float32(settleFloor32)
	seed := []float32{0.5, f, -f, math.Nextafter32(f, 0), 1e-37, 0x1p-126, -1e-39, math.SmallestNonzeroFloat32}
	for _, delay := range []int{1, 7, 100, 129} {
		d := NewDelayLine[float32](delay)
		want := map[float32]int{}
		for i := 0; i < delay; i++ {
			x := seed[i%len(seed)]
			d.Write(x)
			if math.Abs(float64(x)) < settleFloor32 {
				x = 0
			}
			want[x]++
		}
		for written := 0; written < (settleShare+1)*delay+128; written += 128 {
			for i := 0; i < 128; i++ {
				d.Write(d.Read(delay))
			}
			d.Settle(128, delay)
		}
		got := map[float32]int{}
		for _, x := range d.buf {
			got[x]++
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("delay %d: after %d trips the loop holds %v, want %v", delay, settleShare+1, got, want)
		}
	}
}

// failRecorder stands in for the testing.T of a sweep that is meant to
// fail: it records the first failure and ends the sweep's goroutine.
type failRecorder struct {
	testing.TB
	msg string
}

func (r *failRecorder) Helper()      {}
func (r *failRecorder) Failed() bool { return r.msg != "" }
func (r *failRecorder) FailNow()     { runtime.Goexit() }
func (r *failRecorder) Errorf(f string, a ...any) {
	if r.msg == "" {
		r.msg = fmt.Sprintf(f, a...)
	}
}
func (r *failRecorder) Fatalf(f string, a ...any) {
	r.Errorf(f, a...)
	runtime.Goexit()
}

// TestSweepSeesFloat32History is the sweep's mutation check for float32
// state: a unit that records its input into a float32 line must fail when
// it stores the input scaled into float32's subnormal range as it comes,
// and pass when it stores it through Narrow.
func TestSweepSeesFloat32History(t *testing.T) {
	run := func(store func(float64) float32) string {
		rec := &failRecorder{TB: t}
		k := dsptest.Kernel{Name: "recorder", ZeroBy: 4, New: func() dsptest.Unit {
			line := NewDelayLine[float32](300)
			return dsptest.Unit{State: line, Process: func(l, r []float64) {
				for i := range l {
					line.Write(store(l[i] * 1e-40))
				}
			}}
		}}
		done := make(chan struct{})
		go func() {
			defer close(done)
			dsptest.Sweep(rec, k, sweepNoiseL, sweepNoiseR)
		}()
		<-done
		return rec.msg
	}
	if msg := run(func(x float64) float32 { return float32(x) }); !strings.Contains(msg, "buf[") || !strings.Contains(msg, "subnormal") {
		t.Errorf("a float32 line holding subnormals passed the sweep (%q)", msg)
	}
	if msg := run(Narrow); msg != "" {
		t.Errorf("a float32 line stored through Narrow failed the sweep: %s", msg)
	}
}

// TestDelayLineSettleReachesEveryRecursion closes a unit-gain loop round a
// line, so each of its delay recursions holds its value for ever, starts
// some of them below the floor and calls Settle after every block. Within
// settleShare trips every sub-floor recursion must be 0; nothing at or
// above the floor may ever change; and no call may touch more than its
// share of the block.
func TestDelayLineSettleReachesEveryRecursion(t *testing.T) {
	seed := []float64{0.5, 1e-61, -3e-200, settleFloor, 5e-324, -settleFloor, 1e-70}
	for _, delay := range []int{1, 2, 7, 8, 64, 100, 129, 1927, 2048} {
		for _, n := range []int{1, 7, 128, 300} {
			d := NewDelayLine[float64](delay)
			want := make([]float64, delay) // by recursion: the value it must hold at the end
			for i := 0; i < delay; i++ {
				d.Write(seed[i%len(seed)])
				want[i] = Settle(seed[i%len(seed)])
			}
			for written := 0; written < (settleShare+1)*delay+n; written += n {
				for i := 0; i < n; i++ {
					d.Write(d.Read(delay))
				}
				before := clone(d.buf)
				d.Settle(n, delay)
				changed := 0
				for i := range before {
					if before[i] == d.buf[i] {
						continue
					}
					changed++
					if d.buf[i] != 0 || math.Abs(before[i]) >= settleFloor {
						t.Fatalf("delay %d n %d: slot %d went %g -> %g", delay, n, i, before[i], d.buf[i])
					}
				}
				if most := n/settleShare + n/delay + 2; changed > most {
					t.Fatalf("delay %d n %d: one call settled %d samples, want at most %d", delay, n, changed, most)
				}
			}
			got := make([]float64, delay)
			for i := range got { // the next trip, read out in recursion order
				got[i] = d.Read(delay)
				d.Write(got[i])
			}
			// The read-out starts wherever the blocks stopped, so compare
			// the two as multisets.
			count := func(xs []float64) map[float64]int {
				m := map[float64]int{}
				for _, x := range xs {
					m[x]++
				}
				return m
			}
			g, w := count(got), count(want)
			for v, c := range w {
				if g[v] != c {
					t.Fatalf("delay %d n %d: after %d trips the loop holds %d of %g, want %d (have %v)", delay, n, settleShare+1, g[v], v, c, g)
				}
			}
		}
	}
}

// radius returns the per-sample decay of f's state: the larger pole's
// magnitude.
func radius(f *Biquad) float64 {
	if disc := f.a1*f.a1 - 4*f.a2; disc > 0 {
		return (math.Abs(f.a1) + math.Sqrt(disc)) / 2
	}
	return math.Sqrt(f.a2)
}

func slowest(fs ...*Biquad) float64 {
	r := 0.0
	for _, f := range fs {
		r = max(r, radius(f))
	}
	return r
}

func TestSilenceSweep(t *testing.T) {
	var kernels []dsptest.Kernel
	for k, probe := range spFilters() {
		k, band := k, []string{"lp200", "bp800", "bp3000", "hp8000"}[k]
		kernels = append(kernels,
			dsptest.Kernel{
				Name:   "Biquad.Process/" + band,
				ZeroBy: dsptest.PacketsToFloor(100, radius(probe)),
				New: func() dsptest.Unit {
					fs := []*Biquad{spFilters()[k], spFilters()[k]}
					return dsptest.Unit{State: fs, Process: func(l, r []float64) { fs[0].Process(l); fs[1].Process(r) }}
				},
			},
			dsptest.Kernel{
				Name:   "ProcessPair/" + band,
				ZeroBy: dsptest.PacketsToFloor(100, radius(probe)),
				New: func() dsptest.Unit {
					fs := []*Biquad{spFilters()[k], spFilters()[k]}
					return dsptest.Unit{State: fs, Process: func(l, r []float64) { ProcessPair(fs[0], fs[1], l, r, l, r) }}
				},
			})
	}
	newEQs := func() []*ThreeBandEQ {
		eqs := []*ThreeBandEQ{NewThreeBandEQ(44100), NewThreeBandEQ(44100)}
		eqs[0].SetGains(3, -26, 12)
		eqs[1].SetGainsFrom(eqs[0])
		return eqs
	}
	eq := newEQs()[0]
	eqZeroBy := dsptest.PacketsToFloor(100, slowest(eq.low, eq.mid, eq.high))
	kernels = append(kernels,
		dsptest.Kernel{Name: "ThreeBandEQ.Process", ZeroBy: eqZeroBy, New: func() dsptest.Unit {
			eqs := newEQs()
			return dsptest.Unit{State: eqs, Process: func(l, r []float64) { eqs[0].Process(l); eqs[1].Process(r) }}
		}},
		dsptest.Kernel{Name: "ProcessEQPair", ZeroBy: eqZeroBy, New: func() dsptest.Unit {
			eqs := newEQs()
			return dsptest.Unit{State: eqs, Process: func(l, r []float64) { ProcessEQPair(eqs[0], eqs[1], l, r) }}
		}},
		dsptest.Kernel{Name: "Biquad.ProcessSample+Settle", ZeroBy: dsptest.PacketsToFloor(100, radius(spFilters()[0])), New: func() dsptest.Unit {
			fs := []*Biquad{spFilters()[0], spFilters()[0]}
			return dsptest.Unit{State: fs, Process: func(l, r []float64) {
				for i := range l {
					l[i], r[i] = fs[0].ProcessSample(l[i]), fs[1].ProcessSample(r[i])
				}
				fs[0].Settle()
				fs[1].Settle()
			}}
		}},
	)
	// The reverb's longest comb pair at its longest decay, and a pair
	// shorter than a packet: a loop shrinks by Feedback once per delay
	// samples (the damping only speeds that up).
	for _, c := range []struct {
		name         string
		delayA, delB int
		fb           float64
	}{{"reverb-longest", 1927, 1950, 0.95}, {"short", 74, 81, 0.78}} {
		c := c
		kernels = append(kernels, dsptest.Kernel{
			Name:   "CombPairAdd/" + c.name,
			ZeroBy: dsptest.PacketsToFloor(100, math.Pow(c.fb, 1/float64(c.delB))),
			New: func() dsptest.Unit {
				combs := []*Comb{NewComb(c.delayA, c.fb, 0.2), NewComb(c.delB, c.fb, 0.2)}
				accL, accR := make([]float64, dsptest.PacketSize), make([]float64, dsptest.PacketSize)
				return dsptest.Unit{State: combs, Process: func(l, r []float64) {
					clear(accL)
					clear(accR)
					CombPairAdd(combs[0], combs[1], accL, accR, l, r)
					copy(l, accL)
					copy(r, accR)
				}}
			},
		})
	}
	for _, delay := range []int{220, 74, 1} {
		delay := delay
		kernels = append(kernels, dsptest.Kernel{
			Name:   fmt.Sprintf("AllPassDelay.Process/%d", delay),
			ZeroBy: dsptest.PacketsToFloor(100, math.Pow(0.7, 1/float64(delay+7))) + dsptest.LaneLag(delay+7),
			New: func() dsptest.Unit {
				aps := []*AllPassDelay{NewAllPassDelay(delay, 0.7), NewAllPassDelay(delay+7, 0.7)}
				return dsptest.Unit{State: aps, Process: func(l, r []float64) { aps[0].Process(l); aps[1].Process(r) }}
			},
		})
	}
	const release = 2205.0 // samples: the output stage's 50 ms
	kernels = append(kernels,
		// The limiter's gain relaxes to 1, not 0 (dynamics.go): nothing of
		// it must reach 0, but nothing of it may go subnormal either, and
		// below its threshold it is a new limiter.
		dsptest.Kernel{Name: "Limiter", ZeroBy: 1, New: func() dsptest.Unit {
			ls := []*Limiter{NewLimiter(0.95, 8.8, release, 44100), NewLimiter(0.95, 8.8, release, 44100)}
			return dsptest.Unit{State: ls, Process: func(l, r []float64) { ls[0].Process(l); ls[1].Process(r) }}
		}},
	)
	for _, k := range kernels {
		k := k
		t.Run(k.Name, func(t *testing.T) { dsptest.Sweep(t, k, sweepNoiseL, sweepNoiseR) })
	}
}

// TestLimiterGainNeverSubnormal drives the limiter hard into reduction and
// back out through silence, the one excursion its smoothed gain makes, and
// checks the claim in Process's comment by value.
func TestLimiterGainNeverSubnormal(t *testing.T) {
	lim := NewLimiter(0.5, 8.8, 2205, 44100)
	buf := make([]float64, dsptest.PacketSize)
	for p := 0; p < 4000; p++ {
		clear(buf)
		if p < 100 {
			for i := range buf {
				buf[i] = 40 * sweepNoiseL[(p*dsptest.PacketSize+i)%len(sweepNoiseL)]
			}
		}
		lim.Process(buf)
		dsptest.NoSubnormals(t, "limiter", lim)
		if d := lim.gain - 1; dsptest.Subnormal(d) || dsptest.Subnormal(d*lim.release) {
			t.Fatalf("packet %d: gain-1 = %g", p, d)
		}
	}
	if lim.gain < 1-1e-12 {
		t.Fatalf("gain %v did not relax to 1", lim.gain)
	}
}
