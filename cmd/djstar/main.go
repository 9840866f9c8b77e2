// Command djstar runs the reconstructed DJ Star engine as a live session:
// four decks with synthetic tracks, effect chains, a mixer and the
// timecode front end, paced against the simulated sound card (one packet
// every 2.902 ms). It periodically prints a status line with deck
// positions, meters and deadline statistics — a terminal stand-in for the
// GUI layer of Fig. 2.
//
// Usage:
//
//	djstar -duration 10s -strategy busy -threads 4
//	djstar -chaos "panic:FXA2@100x3, stall:Mixer@500:200ms"
//	djstar -script patches.txt            # timed live graph edits
//	djstar -repl                          # patch specs from stdin
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"djstar/internal/admission"
	"djstar/internal/audio"
	"djstar/internal/engine"
	"djstar/internal/faults"
	"djstar/internal/graph"
	"djstar/internal/obs"
	"djstar/internal/sched"
)

func main() {
	var (
		duration = flag.Duration("duration", 10*time.Second, "how long to run")
		strategy = flag.String("strategy", "busy",
			fmt.Sprintf("scheduling strategy (%s, %s)",
				strings.Join(sched.AllStrategies, ", "), sched.NamePool))
		threads  = flag.Int("threads", 4, "worker threads")
		scale    = flag.Float64("scale", 1.0, "node cost scale (1.0 = paper scale)")
		dvs      = flag.Bool("dvs", true, "timecode (DVS) tempo control")
		chaos    = flag.String("chaos", "", `deterministic fault script, e.g. "panic:FXA2@100x3, stall:Mixer@500:200ms"`)
		watchdog = flag.Bool("watchdog", true, "stall watchdog (detects and names wedged nodes)")
		record   = flag.String("record", "", "write the record bus to this WAV file")
		traceOut = flag.String("trace", "", "write sampled schedule realizations to this file as Chrome trace JSON (load in chrome://tracing or ui.perfetto.dev)")
		httpAddr = flag.String("http", "", `serve live observability on this address (e.g. ":6060"): /debug/pprof/, /v1/sessions/{id}/snapshot|critpath|trace|slo, /metrics`)
		incDir   = flag.String("incident-dir", "", "write flight-recorder incident bundles to this directory (replay with djanalyze -incident)")
		script   = flag.String("script", "", `timed live graph edits: a file of "@<cycle> <patch>" lines, e.g. "@500 insert-delay:A:2" (see DESIGN.md §14)`)
		repl     = flag.Bool("repl", false, "read live patch specs from stdin, one per line (insert-delay:A:2, remove-delay:A, drop-node:<name>)")
		admit    = flag.Bool("admission", false, "deadline-aware admission gate: refuse or degrade sessions and edits whose analytical bound exceeds the packet period (DESIGN.md §15)")
	)
	flag.Parse()

	gc := graph.DefaultConfig()
	gc.Scale = *scale
	if *scale > 0 {
		gc.Calibration = graph.Calibrate()
	}
	if *chaos != "" {
		specs, err := faults.Parse(*chaos)
		if err != nil {
			fmt.Fprintf(os.Stderr, "djstar: -chaos: %v\n", err)
			os.Exit(2)
		}
		gc.Faults = faults.New(1, specs...)
	}
	cfg := engine.Config{
		Graph:    gc,
		Strategy: *strategy,
		Threads:  *threads,
		DVS:      *dvs,
		Watchdog: *watchdog,
		Telemetry: engine.TelemetryOptions{
			IncidentDir: *incDir,
			OnIncident: func(path string, inc *obs.Incident) {
				fmt.Fprintf(os.Stderr, "INCIDENT %s: bundle written to %s\n", inc.Reason, path)
			},
		},
		Hooks: engine.Hooks{
			OnFault: func(r sched.FaultRecord) {
				q := ""
				if r.Quarantined {
					q = " — node quarantined"
				}
				fmt.Fprintf(os.Stderr, "FAULT contained: %s (cycle %d, worker %d): %v%s\n",
					r.Name, r.Cycle, r.Worker, r.Err, q)
			},
			OnStall: func(r engine.StallRecord) {
				fmt.Fprintf(os.Stderr, "STALL: cycle %d wedged %.0f ms in %s [%s]\n",
					r.Cycle, r.ElapsedMS, r.Name, r.Inflight)
			},
		},
	}
	if *traceOut != "" {
		// Keep a deeper ring so the export holds a representative spread
		// of sampled cycles, not just the last handful.
		cfg.Obs.TraceRing = 64
	}
	if *admit {
		cfg.Admission.Enabled = true
		// The envelope scales with the node costs, like the load does.
		cfg.Admission.Config.PeriodUS = admission.DefaultPeriodUS * *scale
	}

	e, err := engine.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "djstar: %v\n", err)
		os.Exit(1)
	}
	defer e.Close()

	if *httpAddr != "" {
		srv, err := engine.StartDebugServer(*httpAddr, e)
		if err != nil {
			fmt.Fprintf(os.Stderr, "djstar: -http: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("live observability on http://%s (pprof, /v1/sessions/%s/snapshot|critpath|trace|slo, /metrics)\n", srv.Addr(), e.SessionID())
	}

	// Optional recorder on the record bus (the RecordBuffer node's
	// limited/clipped output, exactly what the real app would tape).
	var rec *audio.WAVWriter
	if *record != "" {
		f, err := os.Create(*record)
		if err != nil {
			fmt.Fprintf(os.Stderr, "djstar: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		rec, err = audio.NewWAVWriter(f, audio.SampleRate)
		if err != nil {
			fmt.Fprintf(os.Stderr, "djstar: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			if err := rec.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "djstar: finalize recording: %v\n", err)
			}
			fmt.Printf("recorded %d frames (%.1f s) to %s\n",
				rec.Frames(), float64(rec.Frames())/audio.SampleRate, *record)
		}()
	}

	// SIGINT/SIGTERM stop the paced loop at the next cycle boundary; the
	// deferred cleanup then runs normally — engine Close (restoring the GC
	// setting), recording finalization — and the partial metrics are
	// printed before a clean exit 0.
	var interrupted atomic.Bool
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sigCh
		fmt.Fprintf(os.Stderr, "\ndjstar: %v — shutting down cleanly\n", s)
		interrupted.Store(true)
	}()

	// Live graph edits: -script schedules patches at cycle numbers; -repl
	// stages whatever patch specs arrive on stdin. Both go through
	// Engine.ApplyPatch, which is safe from any thread — the edit lands
	// at the next cycle boundary.
	var patches []timedPatch
	if *script != "" {
		var err error
		patches, err = loadPatchScript(*script)
		if err != nil {
			fmt.Fprintf(os.Stderr, "djstar: -script: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("loaded %d timed patches from %s\n", len(patches), *script)
	}
	if *repl {
		go func() {
			sc := bufio.NewScanner(os.Stdin)
			for sc.Scan() {
				spec := strings.TrimSpace(sc.Text())
				if spec == "" || strings.HasPrefix(spec, "#") {
					continue
				}
				if err := e.ApplyPatch(spec); err != nil {
					fmt.Fprintf(os.Stderr, "PATCH rejected %q: %v\n", spec, err)
				} else {
					fmt.Fprintf(os.Stderr, "PATCH staged: %s (lands next cycle)\n", spec)
				}
			}
		}()
		fmt.Println("repl: type patch specs on stdin (insert-delay:A:2, remove-delay:A, drop-node:<name>)")
	}

	totalCycles := int(duration.Seconds() / audio.StandardPacketPeriod.Seconds())
	statusEvery := int(0.5 / audio.StandardPacketPeriod.Seconds()) // twice a second

	fmt.Printf("DJ Star reproduction — %s scheduler, %d threads, %d cycles (%s)\n",
		e.Scheduler().Name(), *threads, totalCycles, *duration)
	fmt.Printf("packet: %d samples @ %d Hz, deadline %.3f ms\n",
		audio.PacketSize, audio.SampleRate, engine.DeadlineMS)
	if st := e.AdmissionState(); st != nil && st.Enabled && st.Report != nil {
		fmt.Printf("admission: %s — bound %.0f µs vs envelope %.0f µs (%s costs, headroom %.0f µs)\n",
			st.Verdict, st.Report.BoundUS, st.Report.EnvelopeUS,
			st.Report.Source, st.Report.HeadroomUS)
	}
	fmt.Println()

	// stagePatches stages every scripted patch due before cycle next.
	stagePatches := func(next int) {
		for len(patches) > 0 && patches[0].cycle <= next {
			p := patches[0]
			patches = patches[1:]
			if err := e.ApplyPatch(p.spec); err != nil {
				fmt.Fprintf(os.Stderr, "PATCH @%d rejected %q: %v\n", p.cycle, p.spec, err)
			} else {
				fmt.Fprintf(os.Stderr, "PATCH @%d staged: %s\n", p.cycle, p.spec)
			}
		}
	}
	stagePatches(0)
	rep := e.RunRealtime(totalCycles, audio.StandardPacketPeriod, func(done, late int) bool {
		if rec != nil {
			if err := rec.WritePacket(e.Session().RecordOut()); err != nil {
				fmt.Fprintf(os.Stderr, "djstar: recording: %v\n", err)
				os.Exit(1)
			}
		}
		if done%statusEvery == 0 {
			printStatus(e, done, late)
		}
		stagePatches(done)
		return !interrupted.Load()
	})

	m := e.Totals()
	if done := m.Cycles(); done < uint64(totalCycles) {
		fmt.Printf("\ninterrupted after %d / %d cycles — partial metrics follow\n",
			done, totalCycles)
	}
	fmt.Printf("\nfinal: %s/%d: %s\n", e.Scheduler().Name(), e.Scheduler().Threads(), m)
	fmt.Printf("late packets (missed sound card request): %d / %d\n", rep.Late, m.Cycles())
	h := e.Health()
	if h.Faults.Recovered > 0 || h.Stalls > 0 || len(h.Quarantined) > 0 {
		fmt.Printf("health: %d faults contained, %d quarantines (%d restored), %d stalls detected\n",
			h.Faults.Recovered, h.Faults.Quarantined, h.Faults.Restored, h.Stalls)
	}

	if *traceOut != "" {
		if err := writeTrace(*traceOut, e); err != nil {
			fmt.Fprintf(os.Stderr, "djstar: -trace: %v\n", err)
			os.Exit(1)
		}
	}
}

// writeTrace exports the collector's sampled schedule realizations as
// Chrome trace_event JSON.
func writeTrace(path string, e *engine.Engine) error {
	col := e.Collector()
	if col == nil {
		return fmt.Errorf("observability collector is disabled")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	traces := col.Traces()
	if err := obs.WriteChromeTrace(f, e.Plan(), traces); err != nil {
		return err
	}
	fmt.Printf("wrote %d sampled cycles to %s (open in chrome://tracing)\n",
		len(traces), path)
	return nil
}

// timedPatch is one scheduled live graph edit from a -script file.
type timedPatch struct {
	cycle int
	spec  string
}

// loadPatchScript parses a -script file: one "@<cycle> <patch-spec>" per
// line ("@" optional), '#' comments and blank lines ignored. Patches are
// returned sorted by cycle.
func loadPatchScript(path string) ([]timedPatch, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []timedPatch
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s:%d: want \"@<cycle> <patch>\", got %q", path, ln+1, line)
		}
		cyc, err := strconv.Atoi(strings.TrimPrefix(fields[0], "@"))
		if err != nil || cyc < 0 {
			return nil, fmt.Errorf("%s:%d: bad cycle %q", path, ln+1, fields[0])
		}
		out = append(out, timedPatch{cycle: cyc, spec: fields[1]})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].cycle < out[j].cycle })
	return out, nil
}

// printStatus renders one status line per half second of audio.
func printStatus(e *engine.Engine, cycle, late int) {
	s := e.Session()
	var decks []string
	for d, dk := range s.Decks {
		lock := " "
		if e.TimecodeLocked(d) {
			lock = "*"
		}
		decks = append(decks, fmt.Sprintf("%c%s %5.1fs @%.2fx",
			'A'+d, lock, dk.Position()/float64(audio.SampleRate), dk.Tempo()))
	}
	health := ""
	if ep := e.PlanEpoch(); ep > 0 {
		health = fmt.Sprintf(" | epoch %d (%d nodes)", ep, e.Plan().Len())
	}
	if h := e.Health(); h.Faults.Recovered > 0 || h.Stalls > 0 {
		health += fmt.Sprintf(" | faults %d", h.Faults.Recovered)
		if len(h.Quarantined) > 0 {
			health += " q:" + strings.Join(h.Quarantined, ",")
		}
		if h.Stalls > 0 {
			health += fmt.Sprintf(" stalls %d", h.Stalls)
		}
	}
	fmt.Printf("cycle %6d | %s | out %5.2f | graph %.3f ms avg | late %d%s\n",
		cycle, strings.Join(decks, " | "), s.MasterOut().Peak(),
		e.Totals().GraphMeanMS(), late, health)
}
