// Quickstart: build the standard DJ Star graph, run it for one second of
// audio under the busy-waiting scheduler, and print what happened.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"djstar/internal/audio"
	"djstar/internal/engine"
	"djstar/internal/graph"
	"djstar/internal/sched"
)

func main() {
	// 1. Configure the standard 67-node graph (4 decks × 4 FX, mixer,
	//    master section). Scale 0 runs the real DSP without the synthetic
	//    paper-scale load, so this demo is fast everywhere.
	cfg := graph.DefaultConfig()

	// 2. Build an engine around it with the paper's winning strategy.
	e, err := engine.New(engine.Config{
		Graph:    cfg,
		Strategy: sched.NameBusyWait,
		Threads:  4,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer e.Close()

	// 3. Run one second of audio: 345 packets of 128 samples at 44.1 kHz.
	cycles := int(1.0 / audio.StandardPacketPeriod.Seconds())
	m := e.RunCycles(cycles)

	// 4. Inspect the results.
	fmt.Printf("ran %d audio processing cycles (%.1f ms of audio)\n",
		m.Cycles(), float64(m.Cycles())*audio.StandardPacketPeriod.Seconds()*1e3)
	fmt.Printf("graph execution: mean %.4f ms, worst %.4f ms (budget %.1f ms)\n",
		m.GraphMeanMS(), m.GraphMaxMS(), engine.GraphBudgetMS)
	fmt.Printf("full APC:        mean %.4f ms, worst %.4f ms (deadline %.3f ms)\n",
		m.APCMeanMS(), m.APCMaxMS(), engine.DeadlineMS)
	fmt.Printf("deadline misses: %d / %d\n", m.Misses(), m.Cycles())

	// The session is live: the master output buffer holds the last packet.
	s := e.Session()
	fmt.Printf("master peak %.3f, loudness %.4f\n", s.MasterOut().Peak(), s.Loudness())
	for d, dk := range s.Decks {
		fmt.Printf("deck %c: %s at %.1fs, tempo %.2fx\n",
			'A'+d, dk.Track().Name, dk.Position()/audio.SampleRate, dk.Tempo())
	}
}
