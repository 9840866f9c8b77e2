package djstar

import (
	"strings"
	"testing"

	"djstar/internal/dsp/dsptest"
	"djstar/internal/engine"
	"djstar/internal/sched"
)

// TestEngineSilentDecksHoldNoSubnormals is the engine-level case of the
// silence sweeps in the kernel packages: a running engine has its decks
// silenced in every way a DJ can — three paused, the fourth left to run
// off the end of its track with its fader pulled down, one ejected — and
// runs 2000 more cycles (5.8 s; at the parent the SP filters are subnormal
// within 30 and stay there). After every cycle nothing the session holds
// may be subnormal, and at the end the stages the silence reaches directly
// must be at exactly 0, under the sequential and the pooled executor.
func TestEngineSilentDecksHoldNoSubnormals(t *testing.T) {
	for _, strategy := range []string{sched.NameSequential, sched.NamePool} {
		t.Run(strategy, func(t *testing.T) {
			threads := 4
			if strategy == sched.NameSequential {
				threads = 1
			}
			e, err := engine.New(engine.Config{Graph: integConfig(), Strategy: strategy, Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			s := e.Session()
			var tracks []any
			for _, dk := range s.Decks {
				tracks = append(tracks, dk.Track())
			}
			every := 1
			if raceEnabled {
				every = 64 // the walk reads half a million instrumented floats
			}
			check := func(c int) {
				t.Helper()
				if c%every != 0 {
					return
				}
				dsptest.NoSubnormals(t, "session", s, tracks...)
				if t.Failed() {
					t.Fatalf("cycle %d", c)
				}
			}
			for c := 0; c < 200; c++ {
				e.Cycle(nil)
				check(c)
			}
			for d := 0; d < 3; d++ {
				s.Decks[d].Pause()
			}
			s.Decks[0].Load(nil)     // eject
			s.Decks[3].SetLoop(0, 0) // an empty loop disables it
			s.Strips[3].SetFader(0)
			for c := 200; c < 2200; c++ {
				e.Cycle(nil)
				check(c)
			}
			if s.Decks[3].Playing() {
				t.Fatal("deck D did not stop at the end of its track")
			}
			// The SP band filters and their packets on every deck, and the
			// control smoothers that follow the ejected deck's beat phase
			// (0.9 per cycle), see exact silence; the effect tails behind
			// them outlast the run.
			direct := func(l dsptest.Leaf) bool {
				return strings.HasPrefix(l.Path(), "sp") && (dsptest.Recursive(l) || l.Field == "L" || l.Field == "R")
			}
			if l := dsptest.Lingering(s, direct, tracks...); l != "" {
				t.Errorf("SP stage still holds %s after 2000 silent cycles, want exactly 0", l)
			}
			ctl := 0
			dsptest.Walk(s, func(l dsptest.Leaf) {
				if l.Field != "controlState" {
					return
				}
				for i := 0; i < len(l.X); i += len(s.Decks) { // deck A's smoothers
					ctl++
					if l.X[i] != 0 {
						t.Errorf("controlState[%d] = %g after 2000 cycles on an empty deck, want exactly 0", i, l.X[i])
					}
				}
			}, tracks...)
			if ctl == 0 {
				t.Error("no control smoothers found in the session")
			}
		})
	}
}
