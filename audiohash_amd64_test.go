//go:build amd64

package djstar

import (
	"math"
	"testing"

	"djstar/internal/engine"
	"djstar/internal/graph"
	"djstar/internal/sched"
)

// goldenAudioHash is audioHash(seq) as captured on commit eab383b, before
// the DSP kernels were restructured into paired, cascaded and block forms.
// It pins every restructured kernel on the graph's path to its former
// output, bit for bit. It was re-pinned once, when deck tracks moved from
// float64 to float32 storage (DESIGN.md §29). That changed the decks'
// input, by at most 2⁻²³ of each sample's value
// (synth.TestOracleTrackWithinFloat32Tolerance; below −138 dBFS at the
// 0.95 peak), and no kernel. It was re-pinned a second time when the
// flanger's LFO became a rotor reseeded every packet (DESIGN.md §31). That
// changed one kernel's output, by at most 2⁻³⁶ absolute per sample
// (effects.TestOracleLFOWithinTolerance; below −216 dBFS), and left
// the LFO phase bit-identical. The timecode carrier's rotor does not
// reach the hash: DVS is off here. It was re-pinned a third time when the
// echo's lines and the beat masher's capture became float32 (DESIGN.md
// §29). That changed those two units' output, within the bounds of
// effects.TestOracleResizedUnits; over these 2048 cycles the master
// output moved by at most 2.25e-9 (−173 dBFS, measured against the
// previous code on amd64), and by 2.45e-9 over 8192. amd64 only: other
// ports may fuse a*b+c into an FMA, which rounds differently.
const goldenAudioHash uint64 = 0xe3e6d4668de78e2d

// audioHash runs the default 67-node graph spin-free for 2048 cycles under
// the given strategy and folds every sample of the master, record and
// monitor outputs into one FNV-1a hash. between, when set, runs before
// each cycle with the cycle's number: the place to work the decks.
func audioHash(t *testing.T, strategy string, threads int, between func(c int, s *graph.Session)) uint64 {
	t.Helper()
	e, err := engine.New(engine.Config{Graph: graph.DefaultConfig(), Strategy: strategy, Threads: threads})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	h := uint64(14695981039346656037)
	fold := func(buf []float64) {
		for _, v := range buf {
			b := math.Float64bits(v)
			for s := 0; s < 64; s += 8 {
				h = (h ^ (b >> s & 0xff)) * 1099511628211
			}
		}
	}
	for c := 0; c < 2048; c++ {
		if between != nil {
			between(c, e.Session())
		}
		e.Cycle(nil)
		s := e.Session()
		fold(s.MasterOut().L)
		fold(s.MasterOut().R)
		fold(s.RecordOut().L)
		fold(s.RecordOut().R)
		fold(s.MonitorOut())
	}
	return h
}

// TestAudioHashMatchesPreRestructureKernels is the end-to-end half of the
// bit-exactness oracle (the per-kernel half lives in each package's
// oracle_test.go), and it holds every parallel executor to the same hash.
// The settle step (dsp.Settle) leaves it where it was: what it turns to 0
// is forty orders of magnitude under the last bit of any sample here.
func TestAudioHashMatchesPreRestructureKernels(t *testing.T) {
	seq := audioHash(t, sched.NameSequential, 1, nil)
	if seq != goldenAudioHash {
		t.Fatalf("seq audio hash = %#x, want %#x: a kernel changed its output", seq, goldenAudioHash)
	}
	for _, strategy := range []string{sched.NameBusyWait, sched.NameWorkSteal, sched.NamePool} {
		if got := audioHash(t, strategy, 4, nil); got != seq {
			t.Errorf("%s audio hash = %#x, want the seq hash %#x", strategy, got, seq)
		}
	}
}

// TestAudioHashWithPausedDecksIdenticalAcrossExecutors works the decks
// mid-stream — pauses, resumes, a fader pulled down, all four silent at
// once for a while — so that states settle to 0 and start up again inside
// the hashed window, and requires every executor to produce the sequential
// hash: settling is part of each kernel, not of who runs it.
func TestAudioHashWithPausedDecksIdenticalAcrossExecutors(t *testing.T) {
	script := func(c int, s *graph.Session) {
		switch c {
		case 200:
			s.Decks[0].Pause()
			s.Decks[2].Pause()
		case 500:
			s.Decks[1].Pause()
			s.Strips[3].SetFader(0)
		case 700:
			s.Decks[3].Pause()
		case 1300:
			s.Decks[2].Play()
		case 1500:
			s.Decks[0].Play()
			s.Decks[3].Play()
			s.Strips[3].SetFader(1)
		case 1800:
			s.Decks[1].Play()
		}
	}
	seq := audioHash(t, sched.NameSequential, 1, script)
	if seq == goldenAudioHash {
		t.Fatal("the deck script left the audio unchanged")
	}
	for _, strategy := range []string{sched.NameBusyWait, sched.NameWorkSteal, sched.NamePool} {
		if got := audioHash(t, strategy, 4, script); got != seq {
			t.Errorf("%s audio hash = %#x, want the seq hash %#x", strategy, got, seq)
		}
	}
}
