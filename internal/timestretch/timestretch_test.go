package timestretch

import (
	"math"
	"testing"

	"djstar/internal/audio"
	"djstar/internal/synth"
)

// dominantFreq estimates the dominant frequency of buf by counting zero
// crossings.
func dominantFreq(buf []float64, rate int) float64 {
	crossings := 0
	for i := 1; i < len(buf); i++ {
		if (buf[i-1] < 0 && buf[i] >= 0) || (buf[i-1] > 0 && buf[i] <= 0) {
			crossings++
		}
	}
	return float64(crossings) / 2 / (float64(len(buf)) / float64(rate))
}

func TestRatioClamping(t *testing.T) {
	if w, _ := NewWSOLA(512, 0); w.ratio != MinRatio {
		t.Fatalf("WSOLA ratio = %v, want %v", w.ratio, MinRatio)
	}
	if w, _ := NewWSOLA(512, 100); w.ratio != MaxRatio {
		t.Fatalf("WSOLA ratio = %v, want clamped to %v", w.ratio, MaxRatio)
	}
}

func TestWSOLALength(t *testing.T) {
	const rate = audio.SampleRate
	src := synth.SineBuffer(220, rate, rate)
	for _, ratio := range []float64{0.5, 1.0, 1.8} {
		w, _ := NewWSOLA(512, ratio)
		out := w.Stretch(src)
		want := int(float64(len(src)) * ratio)
		if math.Abs(float64(len(out)-want)) > float64(want)/10+1024 {
			t.Fatalf("ratio %v: out length %d, want ~%d", ratio, len(out), want)
		}
	}
}

func TestWSOLAPreservesPitch(t *testing.T) {
	const rate = audio.SampleRate
	src := synth.SineBuffer(330, rate, rate)
	for _, ratio := range []float64{0.7, 1.4} {
		w, _ := NewWSOLA(512, ratio)
		out := w.Stretch(src)
		mid := out[len(out)/4 : 3*len(out)/4]
		f := dominantFreq(mid, rate)
		if math.Abs(f-330) > 20 {
			t.Fatalf("ratio %v: dominant freq %v, want ~330", ratio, f)
		}
	}
}

func TestWSOLAOutputBounded(t *testing.T) {
	src := synth.WhiteNoise(44100, 0.9, 5)
	w, _ := NewWSOLA(512, 1.3)
	out := w.Stretch(src)
	for i, s := range out {
		if math.IsNaN(s) || math.Abs(s) > 2 {
			t.Fatalf("sample %d = %v", i, s)
		}
	}
}

func TestWSOLAValidation(t *testing.T) {
	if _, err := NewWSOLA(8, 1); err == nil {
		t.Fatal("tiny frame accepted")
	}
}

func TestWSOLAResetAndReuse(t *testing.T) {
	src := synth.SineBuffer(440, 22050, 44100)
	w, _ := NewWSOLA(512, 1.2)
	// Stretch clears its match history when it returns, so a second
	// call starts as the first did.
	a := w.Stretch(src)
	b := w.Stretch(src)
	if len(a) != len(b) {
		t.Fatalf("reuse changed output length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("reuse not deterministic at %d", i)
		}
	}
}

func TestStretchEmptyAndShortInputs(t *testing.T) {
	w, _ := NewWSOLA(512, 1.5)
	if out := w.Stretch(nil); len(out) != 0 {
		t.Fatalf("empty input gave %d samples", len(out))
	}
	if out := w.Stretch(make([]float64, 10)); len(out) > 15 {
		t.Fatalf("short WSOLA input gave %d samples", len(out))
	}
}
