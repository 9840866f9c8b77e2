// Autopilot: an automatic DJ set. The library is filled with analyzed
// tracks; the autopilot picks harmonically and tempo-compatible
// successors, beat-syncs them and crossfades at each track's outro —
// exercising the analyzer, decks, sync and mixer end to end while the
// engine holds its 2.9 ms deadline.
//
//	go run ./examples/autopilot
package main

import (
	"fmt"
	"log"

	"djstar/internal/app"
	"djstar/internal/audio"
	"djstar/internal/engine"
	"djstar/internal/graph"
	"djstar/internal/sched"
	"djstar/internal/synth"
)

func main() {
	gc := graph.DefaultConfig()
	gc.TrackBars = 8 // ~15 s tracks keep the demo brisk
	a, err := app.New(app.Config{
		Engine: engine.Config{
			Graph:    gc,
			Strategy: sched.NameBusyWait,
			Threads:  4,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer a.Close()

	// A small crate of mutually mixable tracks (close tempos, related
	// keys) plus one deliberate misfit.
	crate := []synth.TrackSpec{
		{Name: "opener", BPM: 125, Bars: 8, Seed: 11, Key: 0},
		{Name: "builder", BPM: 126, Bars: 8, Seed: 22, Key: 7},
		{Name: "peak", BPM: 127, Bars: 8, Seed: 33, Key: 0},
		{Name: "roller", BPM: 125, Bars: 8, Seed: 44, Key: 5},
		{Name: "misfit", BPM: 150, Bars: 8, Seed: 55, Key: 3},
	}
	fmt.Println("analyzing crate...")
	for _, spec := range crate {
		e, err := a.Library.Add(synth.GenerateTrack(spec))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s %6.1f BPM  key %s\n",
			spec.Name, e.Analysis.BPM, e.Analysis.KeyName)
	}

	ap := app.NewAutopilot(a)
	ap.CrossfadeBeats = 16
	if err := ap.Start("opener"); err != nil {
		log.Fatal(err)
	}

	const seconds = 60
	cycles := int(seconds / audio.StandardPacketPeriod.Seconds())
	lastLive := ap.LiveDeck()
	fmt.Printf("\nrunning a %d-second set...\n", seconds)
	for i := 0; i < cycles; i++ {
		a.Cycle(nil)
		ap.Cycle()
		if live := ap.LiveDeck(); live != lastLive {
			now := float64(i) * audio.StandardPacketPeriod.Seconds()
			hist := ap.History()
			fmt.Printf("%6.1fs  mixed into %q on deck %c\n",
				now, hist[len(hist)-1], 'A'+live)
			lastLive = live
		}
	}

	fmt.Printf("\nset: %v\n", ap.History())
	fmt.Printf("transitions: %d\n", ap.Transitions())
	fmt.Printf("engine: %s\n", a.Engine.Totals())
	for _, name := range ap.History() {
		if name == "misfit" {
			fmt.Println("warning: the misfit got played!? (should be excluded by BPM)")
		}
	}
}
