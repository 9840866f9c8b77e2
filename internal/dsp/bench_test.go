package dsp

import (
	"testing"

	"djstar/internal/dsp/dsptest"
	"djstar/internal/synth"
)

// The benchmarks time each kernel on one 128-sample packet, restored from
// a fixed noise source before every call so in-place kernels never decay
// their input into denormals (the copy is part of every figure, as it is
// in bench/layers.go).

const benchN = 128

var (
	benchSrcL = synth.WhiteNoise(benchN, 0.5, 1)
	benchSrcR = synth.WhiteNoise(benchN, 0.5, 2)
)

func BenchmarkBiquadProcess(b *testing.B) {
	f := NewBiquad(LowPass, 1000, 0.8, 0, 44100)
	buf := make([]float64, benchN)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(buf, benchSrcL)
		f.Process(buf)
	}
}

func BenchmarkProcessPair(b *testing.B) {
	fl := NewBiquad(LowPass, 1000, 0.8, 0, 44100)
	fr := NewBiquad(LowPass, 1000, 0.8, 0, 44100)
	l, r := make([]float64, benchN), make([]float64, benchN)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ProcessPair(fl, fr, l, r, benchSrcL, benchSrcR)
	}
}

func BenchmarkThreeBandEQProcess(b *testing.B) {
	eq := NewThreeBandEQ(44100)
	eq.SetGains(3, -2, 1)
	buf := make([]float64, benchN)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(buf, benchSrcL)
		eq.Process(buf)
	}
}

func BenchmarkProcessEQPair(b *testing.B) {
	eqL, eqR := NewThreeBandEQ(44100), NewThreeBandEQ(44100)
	eqL.SetGains(3, -2, 1)
	eqR.SetGainsFrom(eqL)
	l, r := make([]float64, benchN), make([]float64, benchN)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(l, benchSrcL)
		copy(r, benchSrcR)
		ProcessEQPair(eqL, eqR, l, r)
	}
}

func BenchmarkCombPairAdd(b *testing.B) {
	ca, cb := NewComb(1309, 0.78, 0.2), NewComb(1332, 0.78, 0.2)
	accL, accR := make([]float64, benchN), make([]float64, benchN)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clear(accL)
		clear(accR)
		CombPairAdd(ca, cb, accL, accR, benchSrcL, benchSrcR)
	}
}

func BenchmarkAllPassDelayProcess(b *testing.B) {
	a := NewAllPassDelay(74, 0.7)
	buf := make([]float64, benchN)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(buf, benchSrcL)
		a.Process(buf)
	}
}

// benchResample runs CubicResample from pos over a 4-packet source at the
// rate bench/layers.go uses.
func benchResample(b *testing.B, pos float64) {
	src := synth.WhiteNoise(4*benchN, 0.5, 3)
	dst := make([]float64, benchN)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CubicResample(dst, src, pos, 1.03)
	}
}

func BenchmarkCubicResampleInterior(b *testing.B) { benchResample(b, 1.5) }

// The edge path: the packet starts before the source's first tap.
func BenchmarkCubicResampleEdge(b *testing.B) { benchResample(b, 0.5) }

// TestKernelsDoNotAllocate holds every packet kernel to zero allocations.
// BenchmarkSilenceTail times the recursive kernels on noise and, beside
// it, on the silence after a burst of noise (dsptest.BenchSilenceTail):
// the input the benchmarks above restore their packet to avoid. The two
// figures of a kernel must agree; before the settle step an SP band filter
// cost 0.55 us on noise and 18.4 us on the tail.
func BenchmarkSilenceTail(b *testing.B) {
	kernels := []struct {
		name string
		warm int
		new  func() func(l, r []float64)
	}{
		{"ProcessPair", 400, func() func(l, r []float64) {
			fl, fr := NewBiquad(HighPass, 8000, 0.8, 0, 44100), NewBiquad(HighPass, 8000, 0.8, 0, 44100)
			return func(l, r []float64) { ProcessPair(fl, fr, l, r, l, r) }
		}},
		{"ProcessEQPair", 400, func() func(l, r []float64) {
			eqL, eqR := NewThreeBandEQ(44100), NewThreeBandEQ(44100)
			eqL.SetGains(3, -2, 1)
			eqR.SetGainsFrom(eqL)
			return func(l, r []float64) { ProcessEQPair(eqL, eqR, l, r) }
		}},
		{"CombPairAdd", 12000, func() func(l, r []float64) {
			ca, cb := NewComb(1309, 0.78, 0.2), NewComb(1332, 0.78, 0.2)
			accL, accR := make([]float64, benchN), make([]float64, benchN)
			return func(l, r []float64) {
				clear(accL)
				clear(accR)
				CombPairAdd(ca, cb, accL, accR, l, r)
			}
		}},
		{"AllPassDelayProcess", 2000, func() func(l, r []float64) {
			al, ar := NewAllPassDelay(74, 0.7), NewAllPassDelay(81, 0.7)
			return func(l, r []float64) { al.Process(l); ar.Process(r) }
		}},
	}
	for _, k := range kernels {
		b.Run(k.name, func(b *testing.B) {
			dsptest.BenchSilenceTail(b, k.warm, benchSrcL, benchSrcR, k.new)
		})
	}
}

func TestKernelsDoNotAllocate(t *testing.T) {
	fl, fr := NewBiquad(LowPass, 800, 0.7, 0, 44100), NewBiquad(LowPass, 800, 0.7, 0, 44100)
	eqL, eqR := NewThreeBandEQ(44100), NewThreeBandEQ(44100)
	ca, cb := NewComb(1309, 0.78, 0.2), NewComb(1332, 0.78, 0.2)
	ap := NewAllPassDelay(74, 0.7)
	line := NewDelayLine[float64](100)
	l, r := make([]float64, benchN), make([]float64, benchN)
	accL, accR := make([]float64, benchN), make([]float64, benchN)
	src := synth.WhiteNoise(4*benchN, 0.5, 3)
	kernels := map[string]func(){
		"ProcessPair":          func() { ProcessPair(fl, fr, l, r, benchSrcL, benchSrcR) },
		"ThreeBandEQ.Process":  func() { eqL.Process(l) },
		"ProcessEQPair":        func() { ProcessEQPair(eqL, eqR, l, r) },
		"SetGainsFrom":         func() { eqR.SetGainsFrom(eqL) },
		"CombPairAdd":          func() { CombPairAdd(ca, cb, accL, accR, benchSrcL, benchSrcR) },
		"AllPassDelay.Process": func() { ap.Process(l) },
		"DelayLine.Span":       func() { line.Span(74, benchN) },
		"CubicResample":        func() { CubicResample(l, src, 1.5, 1.03); CubicResample(r, src, 0.5, 1.03) },
	}
	for name, fn := range kernels {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s allocates %v per packet", name, allocs)
		}
	}
}
