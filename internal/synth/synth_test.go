package synth

import (
	"math"
	"testing"
	"testing/quick"

	"djstar/internal/audio"
)

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestRandZeroSeedUsable(t *testing.T) {
	r := NewRand(0)
	seen := map[uint64]bool{}
	for i := 0; i < 50; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 50 {
		t.Fatalf("zero-seeded PRNG repeated values: %d unique of 50", len(seen))
	}
}

func TestRandFloat64Range(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRand(seed)
		for i := 0; i < 20; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestOscSineFrequency(t *testing.T) {
	// Count zero crossings of a 441 Hz sine over one second: expect ~882.
	o := NewOsc(Sine, 441, audio.SampleRate)
	crossings := 0
	prev := o.Next()
	for i := 1; i < audio.SampleRate; i++ {
		s := o.Next()
		if (prev < 0 && s >= 0) || (prev > 0 && s <= 0) {
			crossings++
		}
		prev = s
	}
	if crossings < 878 || crossings > 886 {
		t.Fatalf("441 Hz sine produced %d zero crossings, want ~882", crossings)
	}
}

func TestOscShapesBounded(t *testing.T) {
	for _, shape := range []Waveform{Sine, Saw, Square, Triangle} {
		o := NewOsc(shape, 997, audio.SampleRate)
		for i := 0; i < 10000; i++ {
			s := o.Next()
			if s < -1.0001 || s > 1.0001 {
				t.Fatalf("shape %d sample %d out of range: %v", shape, i, s)
			}
		}
	}
}

func TestOscTriangleShape(t *testing.T) {
	// A triangle at 1/4 of the rate visits -1, 0-ish, 1 cyclically.
	o := NewOsc(Triangle, float64(audio.SampleRate)/4, audio.SampleRate)
	vals := make([]float64, 8)
	for i := range vals {
		vals[i] = o.Next()
	}
	// Period of 4 samples: values repeat.
	for i := 0; i < 4; i++ {
		if math.Abs(vals[i]-vals[i+4]) > 1e-9 {
			t.Fatalf("triangle not periodic: %v", vals)
		}
	}
}

func TestADSREnvelope(t *testing.T) {
	e := ADSR{Attack: 10, Decay: 10, Sustain: 0.5, Release: 10}
	if l := e.Level(-1, 100); l != 0 {
		t.Fatalf("pre-note level = %v", l)
	}
	if l := e.Level(0, 100); l != 0 {
		t.Fatalf("attack start = %v, want 0", l)
	}
	if l := e.Level(10, 100); math.Abs(l-1) > 0.11 {
		t.Fatalf("attack peak = %v, want ~1", l)
	}
	if l := e.Level(20, 100); math.Abs(l-0.5) > 1e-9 {
		t.Fatalf("post-decay = %v, want 0.5", l)
	}
	if l := e.Level(50, 100); l != 0.5 {
		t.Fatalf("sustain = %v, want 0.5", l)
	}
	if l := e.Level(105, 100); math.Abs(l-0.25) > 1e-9 {
		t.Fatalf("mid release = %v, want 0.25", l)
	}
	if l := e.Level(200, 100); l != 0 {
		t.Fatalf("post release = %v, want 0", l)
	}
}

func TestADSRMonotoneAttack(t *testing.T) {
	e := ADSR{Attack: 100, Decay: 50, Sustain: 0.6, Release: 20}
	prev := -1.0
	for i := 0; i < 100; i++ {
		l := e.Level(i, 1000)
		if l < prev {
			t.Fatalf("attack not monotone at %d: %v < %v", i, l, prev)
		}
		prev = l
	}
}

func TestGenerateTrackDeterministic(t *testing.T) {
	spec := TrackSpec{Name: "x", Bars: 2, Seed: 7}
	a := GenerateTrack(spec)
	b := GenerateTrack(spec)
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if a.L[i] != b.L[i] || a.R[i] != b.R[i] {
			t.Fatalf("tracks diverge at frame %d", i)
		}
	}
}

func TestGenerateTrackShape(t *testing.T) {
	tr := GenerateTrack(TrackSpec{Name: "t", BPM: 120, Bars: 4, Seed: 3})
	framesPerBar := 4 * int(math.Round(60.0/120*audio.SampleRate))
	if tr.FramesPerBar != framesPerBar {
		t.Fatalf("FramesPerBar = %d, want %d", tr.FramesPerBar, framesPerBar)
	}
	if tr.Len() != 4*framesPerBar {
		t.Fatalf("Len = %d, want %d", tr.Len(), 4*framesPerBar)
	}
	p := 0.0
	for i := range tr.L {
		p = math.Max(p, math.Max(math.Abs(float64(tr.L[i])), math.Abs(float64(tr.R[i])))*tr.Gain)
	}
	if math.Abs(p-0.95) > tr.Gain/2 {
		t.Fatalf("peak = %v, want normalized to 0.95", p)
	}
	if len(tr.LoudBars) != 4 {
		t.Fatalf("LoudBars length %d", len(tr.LoudBars))
	}
}

func TestGenerateTrackLoudQuietContrast(t *testing.T) {
	tr := GenerateTrack(TrackSpec{Bars: 8, Seed: 11, QuietEvery: 2})
	var loudE, quietE float64
	var loudN, quietN int
	for bar, loud := range tr.LoudBars {
		start := bar * tr.FramesPerBar
		e := 0.0
		for _, v := range tr.L[start : start+tr.FramesPerBar] {
			e += float64(v) * float64(v)
		}
		if loud {
			loudE += e
			loudN++
		} else {
			quietE += e
			quietN++
		}
	}
	if loudN == 0 || quietN == 0 {
		t.Fatalf("expected both loud and quiet bars, got %d/%d", loudN, quietN)
	}
	if loudE/float64(loudN) < 4*(quietE/float64(quietN)) {
		t.Fatalf("loud bars not clearly louder: loud=%v quiet=%v", loudE/float64(loudN), quietE/float64(quietN))
	}
}

func TestStandardDeckTracksDistinct(t *testing.T) {
	tracks := StandardDeckTracks(2)
	for i := range tracks {
		if tracks[i] == nil || tracks[i].Len() == 0 {
			t.Fatalf("track %d empty", i)
		}
	}
	// Different seeds/keys must give different audio.
	same := 0
	n := min(tracks[0].Len(), tracks[1].Len())
	for i := 0; i < n; i++ {
		if tracks[0].L[i] == tracks[1].L[i] {
			same++
		}
	}
	if float64(same) > 0.5*float64(n) {
		t.Fatalf("deck A and B audio suspiciously similar: %d/%d equal", same, n)
	}
}

func TestSineBuffer(t *testing.T) {
	s := SineBuffer(1000, 64, audio.SampleRate)
	if len(s) != 64 || s[0] != 0 {
		t.Fatalf("SineBuffer bad start: len=%d s[0]=%v", len(s), s[0])
	}
}

// TestGenerateTrackDefaultsNonPositive renders a spec whose BPM, Bars or
// Rate is negative: each is replaced by its default, as a zero is, where
// it used to reach make and panic.
func TestGenerateTrackDefaultsNonPositive(t *testing.T) {
	base := TrackSpec{Name: "x", BPM: 126, Bars: 1, Rate: audio.SampleRate, Seed: 3}
	for _, row := range []struct {
		name string
		set  func(s *TrackSpec, sign int)
	}{
		{"BPM", func(s *TrackSpec, sign int) { s.BPM = float64(sign) * 120 }},
		{"Bars", func(s *TrackSpec, sign int) { s.Bars = sign }},
		{"Rate", func(s *TrackSpec, sign int) { s.Rate = sign * 44100 }},
	} {
		t.Run(row.name, func(t *testing.T) {
			neg, zero := base, base
			row.set(&neg, -1)
			row.set(&zero, 0)
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("GenerateTrack(%+v) panicked: %v", neg, r)
				}
			}()
			got, want := GenerateTrack(neg), GenerateTrack(zero)
			if got.Len() != want.Len() || got.FramesPerBar != want.FramesPerBar || got.BPM != want.BPM || got.Gain != want.Gain {
				t.Fatalf("%+v: %d frames, %d per bar, %v BPM, gain %v; want %d, %d, %v, %v",
					neg, got.Len(), got.FramesPerBar, got.BPM, got.Gain, want.Len(), want.FramesPerBar, want.BPM, want.Gain)
			}
			for i := range want.L {
				if got.L[i] != want.L[i] || got.R[i] != want.R[i] {
					t.Fatalf("%+v: frame %d differs from the default's render", neg, i)
				}
			}
		})
	}
	// QuietEvery differs: 0 is its default, 2, and a negative value turns
	// quiet sections off.
	t.Run("QuietEvery=0", func(t *testing.T) {
		zero, two := base, base
		zero.Bars, two.Bars, two.QuietEvery = 4, 4, 2
		sameTrack(t, "QuietEvery 0 against 2", GenerateTrack(zero), GenerateTrack(two))
	})
	t.Run("QuietEvery<0", func(t *testing.T) {
		off := base
		off.Bars, off.QuietEvery = 4, -1
		for bar, loud := range GenerateTrack(off).LoudBars {
			if !loud {
				t.Fatalf("QuietEvery -1: bar %d is quiet", bar)
			}
		}
	})
}

func TestWhiteNoiseBoundedAndSeeded(t *testing.T) {
	a := WhiteNoise(256, 0.5, 9)
	b := WhiteNoise(256, 0.5, 9)
	c := WhiteNoise(256, 0.5, 10)
	diff := false
	for i := range a {
		if math.Abs(a[i]) > 0.5 {
			t.Fatalf("noise sample %d out of range: %v", i, a[i])
		}
		if a[i] != b[i] {
			t.Fatal("same seed produced different noise")
		}
		if a[i] != c[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical noise")
	}
}

// BenchmarkGenerateTrack times one 16-bar standard track; -cpu sets the
// render's workers.
func BenchmarkGenerateTrack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		GenerateTrack(standardSpecs[0])
	}
}
