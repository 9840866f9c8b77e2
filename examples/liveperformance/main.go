// Live performance: a scripted two-minute-of-audio DJ set on the
// reconstructed engine — beatmatching, EQ kills, crossfades, effect
// sweeps and sampler hits — while tracking the real-time deadline. This
// is the workload the paper's introduction motivates: "DJs often change
// effects or mixer parameters during their live performances", which is
// why only one packet is available at a time and the graph must be
// recomputed per packet.
//
//	go run ./examples/liveperformance
package main

import (
	"fmt"
	"log"

	"djstar/internal/audio"
	"djstar/internal/dsp"
	"djstar/internal/engine"
	"djstar/internal/graph"
	"djstar/internal/sched"
	"djstar/internal/synth"
)

// cue is one scripted action at a given cycle.
type cue struct {
	atSecond float64
	desc     string
	apply    func(s *graph.Session)
}

func main() {
	cfg := graph.DefaultConfig()
	cfg.TrackBars = 32 // ~60 s tracks
	e, err := engine.New(engine.Config{
		Graph:    cfg,
		Strategy: sched.NameBusyWait,
		Threads:  4,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer e.Close()
	s := e.Session()

	// Opening state: deck A playing on the A side, deck B cued in the
	// headphones; decks C/D muted.
	s.Mix.SetCrossfade(0)
	s.Strips[1].SetCue(true)
	s.Strips[2].SetFader(0)
	s.Strips[3].SetFader(0)
	// A session's sampler is built empty: load the hit it plays at 35 s.
	hit := synth.SineBuffer(880, audio.SampleRate/4, audio.SampleRate)
	s.Sampler.LoadClip(audio.Stereo{L: hit, R: hit})
	s.Sampler.SetGain(0.5)

	script := []cue{
		{5, "kill deck B lows for the blend", func(s *graph.Session) {
			s.Strips[1].SetEQ(dsp.EQGainMin, 0, 0)
		}},
		{10, "start crossfade A->B", func(s *graph.Session) {
			s.Mix.SetCrossfade(0.25)
		}},
		{15, "crossfade center, open B lows, kill A lows", func(s *graph.Session) {
			s.Mix.SetCrossfade(0.5)
			s.Strips[1].SetEQ(0, 0, 0)
			s.Strips[0].SetEQ(dsp.EQGainMin, 0, 0)
		}},
		{20, "sweep deck B filter", func(s *graph.Session) {
			s.Strips[1].SetFilter(dsp.HighPass, 400, 0.9, true)
		}},
		{25, "complete crossfade to B, uncue", func(s *graph.Session) {
			s.Mix.SetCrossfade(1)
			s.Strips[1].SetCue(false)
			s.Strips[1].SetFilter(dsp.AllPass, 0, 0, false)
		}},
		{30, "push echo macro on deck B", func(s *graph.Session) {
			for _, fx := range s.FX[1] {
				if fx.Name() == "echo" || fx.Name() == "flanger" {
					fx.SetMacro(0.8)
					fx.SetWet(0.5)
				}
			}
		}},
		{35, "sampler hit", func(s *graph.Session) {
			s.Sampler.Trigger()
		}},
		{40, "bring deck C in on the A side", func(s *graph.Session) {
			s.Strips[2].SetFader(1)
			s.Strips[2].SetCrossfadeSide(0) // through
			s.Mix.SetCrossfade(0.7)
		}},
		{50, "wind down: master to half", func(s *graph.Session) {
			s.Mix.SetMasterLevel(0.5)
		}},
	}

	const seconds = 60.0
	total := int(seconds / audio.StandardPacketPeriod.Seconds())
	next := 0
	var peakHold float64

	// Mid-set live re-patch: at ~22 s a two-unit feedback-delay chain is
	// spliced into deck B's playing signal path (a whole-topology edit,
	// not a parameter change), then excised 200 cycles later. The audio
	// must stay continuous through both plan swaps — no silent packets in
	// the window around them.
	insertAt := int(22.0 / audio.StandardPacketPeriod.Seconds())
	const removeAfter = 200
	removeAt := insertAt + removeAfter
	baseNodes := e.Plan().Len()
	zeroInWindow := 0

	for i := 0; i < total; i++ {
		now := float64(i) * audio.StandardPacketPeriod.Seconds()
		for next < len(script) && now >= script[next].atSecond {
			fmt.Printf("%6.1fs  %s\n", now, script[next].desc)
			script[next].apply(s)
			next++
		}
		switch i {
		case insertAt:
			fmt.Printf("%6.1fs  LIVE RE-PATCH: insert 2-unit delay chain on deck B\n", now)
			if err := e.ApplyPatch("insert-delay:B:2"); err != nil {
				log.Fatalf("insert-delay: %v", err)
			}
		case removeAt:
			fmt.Printf("%6.1fs  LIVE RE-PATCH: remove the delay chain (200 cycles later)\n", now)
			if err := e.ApplyPatch("remove-delay:B"); err != nil {
				log.Fatalf("remove-delay: %v", err)
			}
		}
		e.Cycle(nil)
		p := s.MasterOut().Peak()
		if p > peakHold {
			peakHold = p
		}
		if p == 0 && i >= insertAt-10 && i <= removeAt+100 {
			zeroInWindow++
		}
	}

	// The set must have adopted both edits and returned to the original
	// node count, without a single silent packet at either swap boundary.
	if got := e.PlanEpoch(); got != 2 {
		log.Fatalf("plan epoch = %d after the set, want 2 (insert + remove adopted)", got)
	}
	if got := e.Plan().Len(); got != baseNodes {
		log.Fatalf("node count = %d after excision, want %d", got, baseNodes)
	}
	if zeroInWindow > 0 {
		log.Fatalf("audio discontinuity: %d silent master packets around the re-patch window", zeroInWindow)
	}

	m := e.Totals()
	fmt.Printf("\nset complete: %d cycles (%.0f s of audio)\n", m.Cycles(), seconds)
	fmt.Printf("re-patch: 2 topology edits adopted live (epoch %d), audio continuous through both swaps\n",
		e.PlanEpoch())
	fmt.Printf("graph: mean %.4f ms, worst %.4f ms\n", m.GraphMeanMS(), m.GraphMaxMS())
	fmt.Printf("APC deadline misses: %d / %d (deadline %.3f ms)\n",
		m.Misses(), m.Cycles(), engine.DeadlineMS)
	fmt.Printf("output peak held at %.3f (limiter ceiling 0.98) — clipped samples: %d\n",
		peakHold, s.OutputStage().ClippedSamples())
}
