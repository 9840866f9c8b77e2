// Multi-session: run four independent DJ sessions concurrently over one
// shared worker pool — the scenario the shared execution core enables
// beyond the paper's single-app setting. Each session keeps its own
// 67-node graph, decks and mixer; only the pinned worker threads are
// shared, with per-session cycle serialization preserved. The container
// is a one-shard fleet: the same pool + admission controller + paced
// session drivers that cmd/djserve runs, minus the HTTP front end.
//
//	go run ./examples/multisession
package main

import (
	"fmt"
	"log"
	"time"

	"djstar/internal/engine"
	"djstar/internal/fleet"
	"djstar/internal/graph"
)

func main() {
	// 1. One shard with three helper workers. Each session's driver
	//    goroutine executes nodes too, so the pool behaves like the
	//    paper's 4-thread configuration per cycle. The base engine config
	//    is shared by every session (scale 0: real DSP, no synthetic
	//    paper-scale load, fast everywhere).
	f, err := fleet.New(fleet.Config{
		Shards:          1,
		WorkersPerShard: 3,
		Engine:          engine.Config{Graph: graph.DefaultConfig()},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	// 2. Four sessions. Three come up with the shared defaults; the
	//    fourth shows the SessionSpec options struct — a named session
	//    whose zero-valued fields inherit the base config and whose set
	//    fields override it (here: a two-deck graph just for this
	//    session). Each AddSession is placed by analytical headroom and
	//    starts cycling on the 2.902 ms packet clock at once.
	guest := graph.DefaultConfig()
	guest.Decks = 2
	specs := []engine.SessionSpec{{}, {}, {}, {ID: "guest-deck", Graph: &guest}}
	for _, sp := range specs {
		if _, _, err := f.AddSession(sp); err != nil {
			log.Fatal(err)
		}
	}

	// 3. One second of audio on every session at once: each driver cycles
	//    independently; the pool multiplexes ready nodes from whichever
	//    sessions are mid-cycle onto the shared workers.
	time.Sleep(time.Second)

	// 4. Per-session results, read live through the same Snapshot the
	//    /v1 control plane serves: every session kept its own timing
	//    statistics. Stopping a session ends its driver, after which its
	//    audio buffers can be read without racing the cycle thread.
	sessions := f.Sessions()
	fmt.Printf("%d sessions over one shared pool (%d threads)\n\n",
		len(sessions), f.Shards()[0].Pool().Workers()+1)
	for _, s := range sessions {
		snap := s.Engine().Snapshot()
		if err := f.RemoveSession(s.ID()); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("session %-11s %4d cycles, graph mean %.4f ms, worst %.4f ms | master peak %.3f\n",
			s.ID()+":", snap.Cycles, snap.GraphMeanMS, snap.GraphMaxMS, s.Engine().Session().MasterOut().Peak())
	}
}
