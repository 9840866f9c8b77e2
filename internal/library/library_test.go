package library

import (
	"math"
	"strings"
	"testing"

	"djstar/internal/audio"
	"djstar/internal/synth"
)

func TestAnalyzeBPMOnGroundTruthTracks(t *testing.T) {
	a := NewAnalyzer(audio.SampleRate)
	for _, bpm := range []float64{120, 126, 128} {
		tr := synth.GenerateTrack(synth.TrackSpec{
			Name: "t", BPM: bpm, Bars: 16, Seed: 42, QuietEvery: 0, // all loud
		})
		an, err := a.Analyze(tr.L, tr.R)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(an.BPM-bpm) > 2 {
			t.Errorf("BPM %v detected as %v", bpm, an.BPM)
		}
		if an.BPMConfidence <= 0 {
			t.Errorf("BPM %v confidence %v", bpm, an.BPMConfidence)
		}
	}
}

func TestAnalyzeBPMWithQuietSections(t *testing.T) {
	// The standard tracks alternate loud/quiet bars; tempo must survive.
	a := NewAnalyzer(audio.SampleRate)
	tr := synth.GenerateTrack(synth.TrackSpec{Name: "t", BPM: 126, Bars: 16, Seed: 7})
	an, err := a.Analyze(tr.L, tr.R)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(an.BPM-126) > 3 {
		t.Errorf("BPM = %v, want ~126", an.BPM)
	}
}

func TestAnalyzeKeyTracksRoot(t *testing.T) {
	a := NewAnalyzer(audio.SampleRate)
	// Key 0 tracks are rooted at A (55 Hz); pitch class of A is 9.
	for _, tc := range []struct {
		key  int
		want int
	}{
		{0, 9},  // A
		{5, 2},  // D
		{-4, 5}, // F
	} {
		tr := synth.GenerateTrack(synth.TrackSpec{
			Name: "t", Bars: 8, Seed: 3, Key: tc.key, QuietEvery: 0,
		})
		an, err := a.Analyze(tr.L, tr.R)
		if err != nil {
			t.Fatal(err)
		}
		// Accept the root or its fifth (saw/square harmonics make the
		// fifth the strongest competitor).
		fifth := (tc.want + 7) % 12
		if an.Key != tc.want && an.Key != fifth {
			t.Errorf("key %+d: detected %s (%d), want %s or %s",
				tc.key, an.KeyName, an.Key, KeyName(tc.want), KeyName(fifth))
		}
	}
}

func TestAnalyzeBeatGridSpacing(t *testing.T) {
	a := NewAnalyzer(audio.SampleRate)
	tr := synth.GenerateTrack(synth.TrackSpec{Name: "t", BPM: 120, Bars: 8, Seed: 1, QuietEvery: 0})
	an, err := a.Analyze(tr.L, tr.R)
	if err != nil {
		t.Fatal(err)
	}
	if len(an.BeatGrid) < 16 {
		t.Fatalf("beat grid has %d beats", len(an.BeatGrid))
	}
	wantSpacing := 60.0 / 120 * audio.SampleRate
	// Median spacing within 10 % of the beat period.
	var gaps []float64
	for i := 1; i < len(an.BeatGrid); i++ {
		gaps = append(gaps, float64(an.BeatGrid[i]-an.BeatGrid[i-1]))
	}
	sum := 0.0
	for _, g := range gaps {
		sum += g
	}
	mean := sum / float64(len(gaps))
	if math.Abs(mean-wantSpacing)/wantSpacing > 0.1 {
		t.Fatalf("mean beat spacing %v frames, want ~%v", mean, wantSpacing)
	}
}

func TestAnalyzeRejectsShortClip(t *testing.T) {
	a := NewAnalyzer(audio.SampleRate)
	short := make([]float32, 100)
	if _, err := a.Analyze(short, short); err == nil {
		t.Fatal("short clip accepted")
	}
}

func TestAnalyzeSilence(t *testing.T) {
	a := NewAnalyzer(audio.SampleRate)
	silence := make([]float32, audio.SampleRate*2)
	an, err := a.Analyze(silence, silence)
	if err != nil {
		t.Fatal(err)
	}
	if an.BPM != 0 || an.BPMConfidence != 0 {
		t.Fatalf("silence got BPM %v conf %v", an.BPM, an.BPMConfidence)
	}
	if an.DurationSeconds != 2 {
		t.Fatalf("duration = %v", an.DurationSeconds)
	}
}

func TestKeyNameWraps(t *testing.T) {
	if KeyName(0) != "C" || KeyName(9) != "A" || KeyName(12) != "C" || KeyName(-3) != "A" {
		t.Fatal("KeyName mapping wrong")
	}
}

func TestOverviewShape(t *testing.T) {
	clip := make([]float32, 1000)
	for i := 500; i < 1000; i++ { // silent first half, loud second half
		clip[i] = 0.8
	}
	ov := BuildOverview(clip, clip, 10)
	if len(ov.Peak) != 10 || len(ov.RMS) != 10 {
		t.Fatalf("bucket counts %d/%d", len(ov.Peak), len(ov.RMS))
	}
	if ov.Peak[0] != 0 || ov.RMS[0] != 0 {
		t.Fatalf("silent bucket nonzero: %v %v", ov.Peak[0], ov.RMS[0])
	}
	// The stored sample is float32(0.8); the overview must not lose more.
	if want := float64(float32(0.8)); math.Abs(ov.Peak[9]-want) > 1e-12 || math.Abs(ov.RMS[9]-want) > 1e-12 {
		t.Fatalf("loud bucket %v/%v, want %v", ov.Peak[9], ov.RMS[9], want)
	}
	// Degenerate inputs.
	empty := BuildOverview(nil, nil, 0)
	if len(empty.Peak) != 1 {
		t.Fatal("zero-bucket overview")
	}
}

func TestOverviewRender(t *testing.T) {
	clip := make([]float32, 100)
	for i := range clip {
		clip[i] = 1
	}
	out := BuildOverview(clip, clip, 20).Render(3)
	if !strings.Contains(out, "#") || !strings.Contains(out, "-") {
		t.Fatalf("render missing marks:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 7 {
		t.Fatalf("render has %d lines, want 7", len(lines))
	}
}

func TestLibraryCRUD(t *testing.T) {
	lib := New(audio.SampleRate)
	if _, err := lib.Add(nil); err == nil {
		t.Fatal("nil track accepted")
	}
	tr := synth.GenerateTrack(synth.TrackSpec{Name: "one", BPM: 126, Bars: 4, Seed: 1})
	e, err := lib.Add(tr)
	if err != nil {
		t.Fatal(err)
	}
	if e.Analysis == nil || lib.Len() != 1 {
		t.Fatal("entry incomplete")
	}
	if lib.Get("one") != e {
		t.Fatal("Get mismatch")
	}
	if lib.Get("missing") != nil {
		t.Fatal("phantom entry")
	}
	tr2 := synth.GenerateTrack(synth.TrackSpec{Name: "two", BPM: 140, Bars: 4, Seed: 2})
	if _, err := lib.Add(tr2); err != nil {
		t.Fatal(err)
	}
	names := lib.Names()
	if len(names) != 2 || names[0] != "one" || names[1] != "two" {
		t.Fatalf("Names = %v", names)
	}
	if _, err := lib.Add(tr2); err != nil || lib.Len() != 2 {
		t.Fatal("re-adding a name must replace its entry")
	}
}

func TestLibraryCompatibleBPM(t *testing.T) {
	lib := New(audio.SampleRate)
	for _, spec := range []synth.TrackSpec{
		{Name: "a", BPM: 124, Bars: 8, Seed: 1, QuietEvery: 0},
		{Name: "b", BPM: 126, Bars: 8, Seed: 2, QuietEvery: 0},
		{Name: "c", BPM: 150, Bars: 8, Seed: 3, QuietEvery: 0},
	} {
		if _, err := lib.Add(synth.GenerateTrack(spec)); err != nil {
			t.Fatal(err)
		}
	}
	got := lib.CompatibleBPM(126, 4)
	if len(got) != 2 {
		t.Fatalf("matched %d tracks, want 2 (124 & 126)", len(got))
	}
	// Sorted by distance: 126 first.
	if math.Abs(got[0].Analysis.BPM-126) > math.Abs(got[1].Analysis.BPM-126) {
		t.Fatal("results not distance-sorted")
	}
}
