package dsp

import (
	"math"
	"testing"
	"testing/quick"

	"djstar/internal/synth"
)

func TestBiquadLowPassAttenuatesHigh(t *testing.T) {
	const rate = 44100
	f := NewBiquad(LowPass, 1000, 0.707, 0, rate)
	// Magnitude well below cutoff ~1, well above strongly attenuated.
	if m := magnitudeAt(f, 100, rate); math.Abs(m-1) > 0.05 {
		t.Fatalf("LP magnitude at 100 Hz = %v, want ~1", m)
	}
	if m := magnitudeAt(f, 10000, rate); m > 0.05 {
		t.Fatalf("LP magnitude at 10 kHz = %v, want < 0.05", m)
	}
	// -3 dB near cutoff.
	if m := magnitudeAt(f, 1000, rate); math.Abs(m-math.Sqrt(0.5)) > 0.03 {
		t.Fatalf("LP magnitude at cutoff = %v, want ~0.707", m)
	}
}

func TestBiquadHighPassAttenuatesLow(t *testing.T) {
	const rate = 44100
	f := NewBiquad(HighPass, 1000, 0.707, 0, rate)
	if m := magnitudeAt(f, 10000, rate); math.Abs(m-1) > 0.05 {
		t.Fatalf("HP magnitude at 10 kHz = %v, want ~1", m)
	}
	if m := magnitudeAt(f, 50, rate); m > 0.01 {
		t.Fatalf("HP magnitude at 50 Hz = %v, want < 0.01", m)
	}
}

func TestBiquadNotchKillsCenter(t *testing.T) {
	const rate = 44100
	f := NewBiquad(Notch, 2000, 4, 0, rate)
	if m := magnitudeAt(f, 2000, rate); m > 0.02 {
		t.Fatalf("notch magnitude at center = %v, want ~0", m)
	}
	if m := magnitudeAt(f, 200, rate); math.Abs(m-1) > 0.05 {
		t.Fatalf("notch magnitude far away = %v, want ~1", m)
	}
}

func TestBiquadAllPassFlat(t *testing.T) {
	const rate = 44100
	f := NewBiquad(AllPass, 1500, 0.8, 0, rate)
	for _, freq := range []float64{100, 1000, 5000, 15000} {
		if m := magnitudeAt(f, freq, rate); math.Abs(m-1) > 1e-6 {
			t.Fatalf("allpass magnitude at %v Hz = %v, want 1", freq, m)
		}
	}
}

func TestBiquadPeakingGain(t *testing.T) {
	const rate = 44100
	f := NewBiquad(Peaking, 1200, 0.7, 6, rate)
	want := math.Pow(10, 6.0/20)
	if m := magnitudeAt(f, 1200, rate); math.Abs(m-want) > 0.05 {
		t.Fatalf("peaking magnitude at center = %v, want %v", m, want)
	}
}

func TestBiquadShelves(t *testing.T) {
	const rate = 44100
	low := NewBiquad(LowShelf, 250, 0.9, -12, rate)
	if m := magnitudeAt(low, 40, rate); math.Abs(m-math.Pow(10, -12.0/20)) > 0.05 {
		t.Fatalf("low shelf at 40 Hz = %v, want ~0.25", m)
	}
	if m := magnitudeAt(low, 8000, rate); math.Abs(m-1) > 0.05 {
		t.Fatalf("low shelf at 8 kHz = %v, want ~1", m)
	}
	high := NewBiquad(HighShelf, 6000, 0.9, 6, rate)
	if m := magnitudeAt(high, 15000, rate); math.Abs(m-math.Pow(10, 6.0/20)) > 0.12 {
		t.Fatalf("high shelf at 15 kHz = %v, want ~2", m)
	}
}

func TestBiquadStabilityProperty(t *testing.T) {
	// All cookbook configurations within legal parameter ranges are stable.
	f := func(kindSeed uint8, freqFrac, qFrac, gainFrac float64) bool {
		kind := FilterKind(int(kindSeed) % 8)
		freq := 10 + math.Abs(math.Mod(freqFrac, 1))*20000
		q := 0.1 + math.Abs(math.Mod(qFrac, 1))*10
		gain := math.Mod(gainFrac, 1) * 24
		b := NewBiquad(kind, freq, q, gain, 44100)
		return isStable(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBiquadImpulseDecays(t *testing.T) {
	f := NewBiquad(BandPass, 3000, 8, 0, 44100)
	buf := make([]float64, 44100)
	buf[0] = 1
	f.Process(buf)
	tail := buf[len(buf)/2:]
	peak := 0.0
	for _, s := range tail {
		if a := math.Abs(s); a > peak {
			peak = a
		}
	}
	if peak > 1e-6 {
		t.Fatalf("impulse response tail peak = %v, want decayed", peak)
	}
}

func TestBiquadDefaultsAndClamping(t *testing.T) {
	// Invalid parameters must not produce an unstable or NaN filter.
	f := NewBiquad(LowPass, -5, -1, 0, 44100)
	if !isStable(f) {
		t.Fatal("clamped filter unstable")
	}
	g := NewBiquad(HighPass, 1e9, 0.7, 0, 44100)
	if !isStable(g) {
		t.Fatal("above-Nyquist clamped filter unstable")
	}
	buf := synth.WhiteNoise(1024, 1, 1)
	f.Process(buf)
	for i, s := range buf {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			t.Fatalf("sample %d is %v", i, s)
		}
	}
}

func TestBiquadProcessMatchesProcessSample(t *testing.T) {
	a := NewBiquad(LowPass, 500, 1, 0, 44100)
	b := NewBiquad(LowPass, 500, 1, 0, 44100)
	in := synth.WhiteNoise(256, 0.9, 5)
	bufA := make([]float64, len(in))
	copy(bufA, in)
	a.Process(bufA)
	for i, x := range in {
		y := b.ProcessSample(x)
		if math.Abs(y-bufA[i]) > 1e-12 {
			t.Fatalf("sample %d: block %v vs per-sample %v", i, bufA[i], y)
		}
	}
}

func TestBiquadResetClearsState(t *testing.T) {
	f := NewBiquad(LowPass, 500, 1, 0, 44100)
	f.ProcessSample(1)
	f.ProcessSample(-1)
	f.Reset()
	// After reset, processing zero input yields exactly zero.
	if y := f.ProcessSample(0); y != 0 {
		t.Fatalf("post-reset output = %v, want 0", y)
	}
}

func TestFilterKindString(t *testing.T) {
	names := map[FilterKind]string{
		LowPass: "lowpass", HighPass: "highpass", BandPass: "bandpass",
		Notch: "notch", AllPass: "allpass", LowShelf: "lowshelf",
		HighShelf: "highshelf", Peaking: "peaking", FilterKind(99): "unknown",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

func TestBiquadProcessNoAlloc(t *testing.T) {
	f := NewBiquad(LowPass, 800, 0.7, 0, 44100)
	buf := make([]float64, 128)
	allocs := testing.AllocsPerRun(100, func() { f.Process(buf) })
	if allocs != 0 {
		t.Fatalf("Process allocates %v per run", allocs)
	}
}
