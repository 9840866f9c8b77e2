// Command djserve runs the session fleet: N shards, each an independent
// worker pool with its own admission controller, optionally pinned to
// disjoint CPU sets, behind the versioned /v1 HTTP/JSON control plane.
// Sessions are created, retuned, edited and destroyed over HTTP while
// the fleet keeps every admitted session on the 2.902 ms packet clock;
// draining a shard migrates its sessions onto the rest of the fleet at
// cycle boundaries without losing a cycle.
//
// Usage:
//
//	djserve -addr :7070 -shards 2 -pin
//	curl -X POST localhost:7070/v1/sessions -d '{}'
//	curl localhost:7070/v1/shards
//	curl -X POST localhost:7070/v1/shards/0/drain
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"djstar/internal/engine"
	"djstar/internal/fleet"
	"djstar/internal/graph"
	"djstar/internal/hardware"
)

func main() {
	var (
		addr      = flag.String("addr", ":7070", "control-plane listen address")
		shards    = flag.Int("shards", 2, "shard count (independent pools + admission controllers)")
		workers   = flag.Int("workers", 0, "helper workers per shard (0 = the smallest shard's CPU count minus one, so one-CPU shards get none)")
		capacity  = flag.Int("capacity", 256, "max sessions per shard")
		pin       = flag.Bool("pin", false, "pin shard workers to disjoint CPU sets (Linux)")
		scale     = flag.Float64("scale", 0.05, "default node cost scale per session")
		trackBars = flag.Int("trackbars", 4, "synthetic track length in bars")
		sessions  = flag.Int("sessions", 0, "sessions to create at boot")
		periodMS  = flag.Float64("period", 0, "cycle pacing in ms (0 = 2.902 ms packet clock, <0 = unpaced)")
		quiet     = flag.Bool("quiet", false, "suppress placement logging")
	)
	flag.Parse()

	cfg := fleet.Config{
		Shards:           *shards,
		WorkersPerShard:  *workers,
		SessionsPerShard: *capacity,
		Pin:              *pin,
	}
	cfg.Engine.Graph = graphConfig(*scale, *trackBars)
	if !*quiet {
		cfg.Logf = log.Printf
	}
	if *periodMS != 0 {
		cfg.Period = time.Duration(*periodMS * float64(time.Millisecond))
	}

	f, err := fleet.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "djserve:", err)
		os.Exit(1)
	}
	defer f.Close()

	for i := 0; i < *sessions; i++ {
		if _, _, err := f.AddSession(engine.SessionSpec{}); err != nil {
			fmt.Fprintf(os.Stderr, "djserve: boot session %d refused: %v\n", i, err)
			break
		}
	}

	srv, err := f.Serve(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "djserve:", err)
		os.Exit(1)
	}
	defer srv.Close()
	log.Printf("djserve: %d shards on %d CPUs (pinning %v), control plane on %s",
		*shards, runtime.NumCPU(), *pin && hardware.PinningSupported(), srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("djserve: shutting down")
}

// graphConfig is every session's graph config. The fleet renders its
// standard tracks once, and the sessions share them, read-only.
func graphConfig(scale float64, trackBars int) graph.Config {
	gcfg := graph.DefaultConfig()
	gcfg.Scale = scale
	gcfg.TrackBars = trackBars
	if scale > 0 {
		gcfg.Calibration = graph.Calibrate()
	}
	return gcfg
}
