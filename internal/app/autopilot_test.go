package app

import (
	"testing"

	"djstar/internal/audio"
	"djstar/internal/engine"
	"djstar/internal/graph"
	"djstar/internal/sched"
	"djstar/internal/synth"
)

// autopilotApp builds an app with a library of mutually compatible
// tracks (same key family, close tempos) so the autopilot always has a
// next track.
func autopilotApp(t *testing.T) *App {
	t.Helper()
	gc := graph.DefaultConfig()
	gc.TrackBars = 4 // ~7.6 s per track: transitions happen quickly
	a, err := New(Config{
		Engine: engine.Config{
			Graph:    gc,
			Strategy: sched.NameBusyWait,
			Threads:  2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	specs := []synth.TrackSpec{
		{Name: "one", BPM: 126, Bars: 4, Seed: 1, Key: 0},
		{Name: "two", BPM: 127, Bars: 4, Seed: 2, Key: 7},
		{Name: "three", BPM: 125, Bars: 4, Seed: 3, Key: 0},
	}
	for _, sp := range specs {
		if _, err := a.Library.Add(synth.GenerateTrack(sp)); err != nil {
			a.Close()
			t.Fatal(err)
		}
	}
	return a
}

func TestAutopilotPlaysASet(t *testing.T) {
	a := autopilotApp(t)
	defer a.Close()
	ap := NewAutopilot(a)
	ap.CrossfadeBeats = 8 // quick transitions for the test
	if err := ap.Start("one"); err != nil {
		t.Fatal(err)
	}
	if ap.LiveDeck() != 0 {
		t.Fatal("live deck not 0 at start")
	}

	// Run ~25 s of audio: with ~7.6 s tracks and outro-triggered mixes,
	// at least two transitions must happen.
	cycles := int(25 / audio.StandardPacketPeriod.Seconds())
	for i := 0; i < cycles; i++ {
		a.Cycle(nil)
		ap.Cycle()
	}

	if ap.Transitions() < 2 {
		t.Fatalf("only %d transitions in 25 s set (history %v)",
			ap.Transitions(), ap.History())
	}
	if len(ap.History()) < 3 {
		t.Fatalf("history too short: %v", ap.History())
	}
	// No immediate repeats.
	h := ap.History()
	for i := 1; i < len(h); i++ {
		if h[i] == h[i-1] {
			t.Fatalf("immediate repeat in set: %v", h)
		}
	}
	// The live deck must be playing and audible.
	s := a.Engine.Session()
	if !s.Decks[ap.LiveDeck()].Playing() {
		t.Fatal("live deck stopped")
	}
}

func TestAutopilotSyncsDuringTransition(t *testing.T) {
	a := autopilotApp(t)
	defer a.Close()
	ap := NewAutopilot(a)
	ap.CrossfadeBeats = 16
	if err := ap.Start("one"); err != nil {
		t.Fatal(err)
	}
	// Run until the first transition starts.
	var inFade bool
	for i := 0; i < 20000 && !inFade; i++ {
		a.Cycle(nil)
		inFade = ap.Cycle()
	}
	if !inFade {
		t.Fatal("no transition ever started")
	}
	// During the fade both decks play at matched effective BPM.
	s := a.Engine.Session()
	d0, d1 := s.Decks[0], s.Decks[1]
	if !d0.Playing() || !d1.Playing() {
		t.Fatal("both decks should play during the fade")
	}
	eff0 := d0.Track().BPM * d0.Tempo()
	eff1 := d1.Track().BPM * d1.Tempo()
	if diff := eff0 - eff1; diff > 0.05 || diff < -0.05 {
		t.Fatalf("decks not tempo-matched during fade: %v vs %v", eff0, eff1)
	}
}

func TestAutopilotStartValidation(t *testing.T) {
	a := autopilotApp(t)
	defer a.Close()
	ap := NewAutopilot(a)
	if err := ap.Start("missing"); err == nil {
		t.Fatal("unknown track accepted")
	}
}
