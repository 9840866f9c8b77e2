package graph

import (
	"math"
	"testing"

	"djstar/internal/audio"
	"djstar/internal/dsp/dsptest"
	"djstar/internal/synth"
)

// The silence sweep over a whole session: every deck plays a track that is
// a burst of noise, a long stretch of exact zeros and the same burst
// again, and after every cycle everything the session holds — decks,
// effect racks, strips, buses, meters, every delay line — is walked for
// subnormals (dsptest.Walk).

const (
	sweepBurst   = 64   // packets of noise at either end of a sweep track
	sweepSilence = 3200 // packets of zeros between them, 9.3 s
)

// sweepTracks returns one noise-silence-noise track per deck at the given
// amplitude; the two bursts of a track are the same samples.
func sweepTracks(amp float64) []*synth.Track {
	burst, silence := sweepBurst*audio.PacketSize, sweepSilence*audio.PacketSize
	tracks := make([]*synth.Track, 4)
	for d := range tracks {
		tr := &synth.Track{Name: "sweep", BPM: 126, FramesPerBar: 84000, Gain: 1.0 / 32767,
			L: make([]int16, 2*burst+silence), R: make([]int16, 2*burst+silence)}
		noiseL, noiseR := synth.WhiteNoise(burst, amp, uint64(81+2*d)), synth.WhiteNoise(burst, amp, uint64(82+2*d))
		for i := range noiseL {
			tr.L[i], tr.R[i] = audio.PCM16(noiseL[i]), audio.PCM16(noiseR[i])
		}
		copy(tr.L[burst+silence:], tr.L[:burst])
		copy(tr.R[burst+silence:], tr.R[:burst])
		tracks[d] = tr
	}
	return tracks
}

func sweepSession(t *testing.T, cfg Config, amp float64) (*Session, *Plan, []any) {
	t.Helper()
	cfg.Tracks = sweepTracks(amp)
	s, g, err := BuildDJStar(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	skip := make([]any, len(cfg.Tracks))
	for i, tr := range cfg.Tracks {
		skip[i] = tr
	}
	return s, p, skip
}

// TestSessionSilenceSweep runs the default 67-node graph — varispeed, key
// lock, all eight effect types — through the sweep. The effect tails
// outlast the silence (the echo's by a minute), so the states that must be
// exactly 0 at its end are the ones the silence reaches directly: the SP
// band filters.
func TestSessionSilenceSweep(t *testing.T) {
	s, p, skip := sweepSession(t, DefaultConfig(), 0.5)
	// The slowest SP band is the 200 Hz low-pass.
	spZeroBy := dsptest.PacketsToFloor(100, dsptest.PoleRadius(200, 0.8, audio.SampleRate))
	silentFor := 0
	for c := 0; c < 2*sweepBurst+sweepSilence; c++ {
		s.Prepare()
		runSequential(p)
		dsptest.NoSubnormals(t, "session", s, skip...)
		if t.Failed() {
			t.Fatalf("cycle %d", c)
		}
		silent := true
		for d := range s.Decks {
			silent = silent && s.deckIn[d].Peak() == 0
		}
		if silentFor++; !silent {
			silentFor = 0
		}
		if silentFor >= spZeroBy {
			root := []any{s.spFiltL, s.spFiltR, s.spBuf}
			isState := func(l dsptest.Leaf) bool { return dsptest.Recursive(l) || l.Field == "L" || l.Field == "R" }
			if l := dsptest.Lingering(root, isState); l != "" {
				t.Fatalf("cycle %d, %d cycles into the silence: SP stage holds %s, want exactly 0", c, silentFor, l)
			}
		}
	}
	if silentFor != 0 || s.MasterOut().Peak() == 0 {
		t.Fatalf("sweep did not end on the second burst (silent for %d cycles, master peak %g)", silentFor, s.MasterOut().Peak())
	}
}

// TestSessionReturnsToNewAfterSilence takes the effects, whose tails are
// longer than any test should run, out of the graph, and everything else —
// SP filters, strips, mixer, output limiters, meters, the loudness
// smoother — must then be exactly 0 within the slowest smoother's bound
// (0.95 per packet) and, on the second burst, produce bit for bit what a
// new session produces on the first. Unity tempo keeps the playheads on
// whole frames, so the two sessions read the same samples.
func TestSessionReturnsToNewAfterSilence(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FXPerDeck = 0
	build := func() (*Session, *Plan, []any) {
		// 0.1: the four-deck sum stays under the limiter's threshold, so
		// its gain never leaves 1.
		s, p, skip := sweepSession(t, cfg, 0.1)
		for _, dk := range s.Decks {
			dk.SetTempo(1)
			dk.SetKeyLock(false)
		}
		return s, p, skip
	}
	s, p, skip := build()
	cycle := func(s *Session, p *Plan) {
		s.Prepare()
		runSequential(p)
	}
	for c := 0; c < sweepBurst; c++ {
		cycle(s, p)
	}
	zeroBy := dsptest.PacketsToFloor(1, math.Pow(0.95, 1.0/audio.PacketSize))
	if zeroBy >= sweepSilence {
		t.Fatalf("silence of %d packets is shorter than the bound %d", sweepSilence, zeroBy)
	}
	state := func(l dsptest.Leaf) bool {
		return dsptest.Recursive(l) || l.Field == "peak" || l.Field == "loudness"
	}
	for c := 0; c < sweepSilence; c++ {
		cycle(s, p)
		dsptest.NoSubnormals(t, "session", s, skip...)
		if c < zeroBy {
			continue
		}
		if l := dsptest.Lingering(s, state, skip...); l != "" {
			t.Fatalf("%d cycles into the silence: %s, want exactly 0 by %d", c+1, l, zeroBy)
		}
		if s.MasterOut().Peak() != 0 || s.RecordOut().Peak() != 0 || (audio.Stereo{L: s.MonitorOut()}).Peak() != 0 {
			t.Fatalf("%d cycles into the silence the outputs are not exactly 0", c+1)
		}
	}
	fresh, fp, _ := build()
	for c := 0; c < sweepBurst; c++ {
		cycle(s, p)
		cycle(fresh, fp)
		same := func(what string, got, want []float64) {
			t.Helper()
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("second burst, cycle %d: %s[%d] = %v, a new session gives %v", c, what, i, got[i], want[i])
				}
			}
		}
		same("master L", s.MasterOut().L, fresh.MasterOut().L)
		same("master R", s.MasterOut().R, fresh.MasterOut().R)
		same("record L", s.RecordOut().L, fresh.RecordOut().L)
		same("monitor", s.MonitorOut(), fresh.MonitorOut())
	}
	if s.MasterOut().Peak() == 0 {
		t.Fatal("second burst is silent")
	}
}
