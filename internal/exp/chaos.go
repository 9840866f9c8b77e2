package exp

import (
	"fmt"
	"sync"
	"time"

	"djstar/internal/engine"
	"djstar/internal/faults"
	"djstar/internal/sched"
)

// Chaos and Governor are the robustness experiments: where the rest of
// the harness reproduces the paper's performance evaluation, these two
// demonstrate the fault model of DESIGN.md §10 end to end — a panicking
// node is contained and quarantined without dropping a cycle, a wedged
// node is detected and named by the stall watchdog, and the deadline
// governor sheds load under overload and restores it afterwards.

// ChaosResult is the outcome of the scripted-fault containment run.
type ChaosResult struct {
	// Metrics is the run's window: every cycle of the script.
	Metrics *engine.Metrics
	// Injected are the injector's counters (what the script fired).
	Injected faults.Stats
	// SilentPackets counts the packets rendered from a flushed (silenced)
	// deck buffer — the audible cost of containment, exactly one per
	// recovered fault. FaultRMS/CleanRMS are the faulted deck's mean
	// output level on those packets vs all others: the flush zeroes the
	// buffer mid-graph, so only the channel strip's filter ring-out
	// remains (the ratio quantifies the attenuation; exact digital
	// silence would require resetting the strip's IIR state too).
	SilentPackets int
	FaultRMS      float64
	CleanRMS      float64
	// Quarantined reports the panicking node entered quarantine, and
	// Restored that a later probe lifted it.
	Quarantined bool
	Restored    bool
	// StallDetected reports the watchdog caught the injected stall;
	// StallNode is the node it blamed.
	StallDetected bool
	StallNode     string
	// Health is the engine's final health snapshot.
	Health engine.Health
}

// chaos scenario coordinates.
const (
	chaosPanicNode  = "FXA2" // in-place FX unit on deck A
	chaosPanicCycle = 100
	chaosStallNode  = "Mixer"
	chaosStallMS    = 85 // injected stall length
	chaosWallMS     = 40 // watchdog wall (< stall, >> any honest cycle)
	chaosProbeEvery = 100
)

// Chaos runs o.Cycles APCs with a scripted node panic (chaosPanicNode,
// QuarantineAfter consecutive cycles — so the quarantine trips and the
// first probe afterwards succeeds and lifts it) and a scripted mid-run
// stall (chaosStallNode at o.Cycles/2, long enough to trip the
// watchdog). The run must complete every cycle: containment, not
// crashing, is the result under test.
func Chaos(o Options) (*ChaosResult, error) {
	o.normalize()
	stallCycle := o.Cycles / 2
	if stallCycle <= chaosPanicCycle+chaosProbeEvery {
		stallCycle = chaosPanicCycle + chaosProbeEvery + 10
	}
	script := fmt.Sprintf("panic:%s@%dx%d, stall:%s@%d:%dms",
		chaosPanicNode, chaosPanicCycle, sched.DefaultQuarantineAfter,
		chaosStallNode, stallCycle, chaosStallMS)
	inj := faults.New(1, faults.MustParse(script)...)

	var (
		mu     sync.Mutex
		stalls []engine.StallRecord
		recs   []sched.FaultRecord
	)
	gcfg := o.graphConfig()
	gcfg.Faults = inj
	e, err := engine.New(engine.Config{
		Graph:          gcfg,
		Strategy:       sched.NameBusyWait,
		Threads:        o.MaxThreads,
		FaultPolicy:    sched.FaultPolicy{ProbeEvery: chaosProbeEvery},
		Watchdog:       true,
		WatchdogWallMS: chaosWallMS,
		Hooks: engine.Hooks{
			OnFault: func(r sched.FaultRecord) {
				mu.Lock()
				recs = append(recs, r)
				mu.Unlock()
			},
			OnStall: func(r engine.StallRecord) {
				mu.Lock()
				stalls = append(stalls, r)
				mu.Unlock()
			},
		},
	})
	if err != nil {
		return nil, err
	}
	defer e.Close()

	res := &ChaosResult{Metrics: &engine.Metrics{}}
	var (
		prevRecovered          int64
		faultSum, cleanSum     float64
		faultCount, cleanCount int
	)
	for i := 0; i < o.Cycles; i++ {
		e.Cycle(res.Metrics)
		rms := e.Session().DeckMixRMS(0)
		if rec := e.Scheduler().FaultState().Faults().Recovered; rec > prevRecovered {
			prevRecovered = rec
			res.SilentPackets++
			faultSum += rms
			faultCount++
		} else {
			cleanSum += rms
			cleanCount++
		}
	}
	if faultCount > 0 {
		res.FaultRMS = faultSum / float64(faultCount)
	}
	if cleanCount > 0 {
		res.CleanRMS = cleanSum / float64(cleanCount)
	}

	res.Injected = inj.Stats()
	res.Health = e.Health()
	fs := res.Health.Faults
	res.Quarantined = fs.Quarantined >= 1
	res.Restored = fs.Restored >= 1
	mu.Lock()
	if len(stalls) > 0 {
		res.StallDetected = true
		res.StallNode = stalls[0].Name
	}
	nrecs := len(recs)
	mu.Unlock()

	w := o.Out
	fprintf(w, "Chaos containment (%d cycles, %s/%d threads)\n",
		res.Metrics.Cycles(), e.Scheduler().Name(), e.Scheduler().Threads())
	fprintf(w, "  script             : %s\n", script)
	fprintf(w, "  injected           : %d panics, %d stalls\n",
		res.Injected.Panics, res.Injected.Stalls)
	fprintf(w, "  recovered faults   : %d (handler saw %d)\n", fs.Recovered, nrecs)
	fprintf(w, "  quarantined        : %v (restored by probe: %v, probes %d)\n",
		res.Quarantined, res.Restored, fs.Probes)
	fprintf(w, "  silenced packets   : %d (bound: faults+1 = %d), deck RMS %.5f vs %.5f clean\n",
		res.SilentPackets, fs.Recovered+1, res.FaultRMS, res.CleanRMS)
	fprintf(w, "  stall detected     : %v (node %q, %d total)\n",
		res.StallDetected, res.StallNode, res.Health.Stalls)
	fprintf(w, "  cycles completed   : %d/%d — no crash, no hang\n",
		res.Metrics.Cycles(), o.Cycles)
	return res, nil
}

// GovernorResult is the outcome of the overload/degradation run.
type GovernorResult struct {
	// DemoDeadlineMS is the APC deadline derived from the measured
	// baseline (the paper-scale 2.902 ms only binds at Scale 1 on paper
	// hardware; the demo derives one that binds on this host).
	DemoDeadlineMS float64
	// Overload-phase miss rates with and without the governor.
	GovernedMissRate   float64
	UngovernedMissRate float64
	// MaxLevel is the deepest degradation level reached under overload;
	// FinalLevel the level after the recovery phase (GovNormal expected).
	MaxLevel   engine.GovLevel
	FinalLevel engine.GovLevel
	// OverloadFactor is the load multiplier applied during overload.
	OverloadFactor float64
}

// governor demo shape (in evaluation windows of govWindow cycles).
// Recovery needs CleanWindows consecutive clean windows per level to
// walk back from critical, and any window dirtied by an OS preemption
// resets that counter — on a shared 1-CPU host one stray preemption per
// ~10 windows is routine, so the recovery phase budgets well past the
// noise-free minimum.
const (
	govWindow        = 32
	govBaseWindows   = 2
	govOverWindows   = 10
	govRecoatWindows = 24
)

// Governor demonstrates graceful degradation: the same three-phase run —
// baseline, overload (load factor inflated ~3×), recovery — executed
// with and without the deadline governor. The governed engine must shed
// into a degraded level within the overload phase, miss less than the
// ungoverned one, and return to normal after the overload is removed.
// Cycle counts are fixed by the window shape, not o.Cycles: the state
// machine needs whole evaluation windows, not raw iterations.
func Governor(o Options) (*GovernorResult, error) {
	o.normalize()
	if o.Scale <= 0 {
		return nil, fmt.Errorf("exp: governor demo needs Scale > 0 (the load factor scales spin cost)")
	}

	// Derive the demo deadline: mean APC at nominal load vs under the
	// overload factor; the midpoint separates the two phases cleanly on
	// any host speed.
	overload := 3.0
	base, over, err := probeAPC(o, overload)
	if err != nil {
		return nil, err
	}
	if over < base*1.2 {
		// Tiny scales leave spin cost (the only load-factor-sensitive
		// part) too small next to the real DSP; push harder.
		overload = 10.0
		if base, over, err = probeAPC(o, overload); err != nil {
			return nil, err
		}
	}
	deadline := (base + over) / 2

	res := &GovernorResult{
		DemoDeadlineMS: deadline,
		OverloadFactor: overload,
		FinalLevel:     engine.GovNormal,
	}
	run := func(governed bool) (overRate float64, err error) {
		cfg := engine.Config{
			Graph:    o.graphConfig(),
			Strategy: sched.NameBusyWait,
			Threads:  o.MaxThreads,
		}
		if governed {
			cfg.Governor = engine.GovernorConfig{
				Enabled:          true,
				DeadlineMS:       deadline,
				GraphBudgetMS:    1e6, // the demo escalates on APC misses only
				Window:           govWindow,
				EscalateMissRate: 0.2,
				CleanWindows:     2,
				// Tolerate a few preemption-dirtied cycles per window so
				// recovery on a noisy shared host reflects the removed
				// overload, not the neighbours' timeslices.
				RecoverMissRate: 0.1,
			}
			cfg.Hooks.OnGovChange = func(_, to engine.GovLevel) {
				if to > res.MaxLevel {
					res.MaxLevel = to
				}
			}
		}
		e, err := engine.New(cfg)
		if err != nil {
			return 0, err
		}
		defer e.Close()

		e.RunCycles(50 + govBaseWindows*govWindow) // warm-up, then baseline
		e.SetLoadFactor(overload)
		missed := 0
		for i := 0; i < govOverWindows*govWindow; i++ {
			t := time.Now()
			e.Cycle(nil)
			if time.Since(t).Seconds()*1e3 > deadline {
				missed++
			}
		}
		e.SetLoadFactor(1.0)
		e.RunCycles(govRecoatWindows * govWindow)
		if governed {
			res.FinalLevel = e.GovLevel()
		}
		return float64(missed) / float64(govOverWindows*govWindow), nil
	}

	if res.UngovernedMissRate, err = run(false); err != nil {
		return nil, err
	}
	if res.GovernedMissRate, err = run(true); err != nil {
		return nil, err
	}

	w := o.Out
	fprintf(w, "Deadline governor (busy/%d threads, %d-cycle windows)\n", o.MaxThreads, govWindow)
	fprintf(w, "  demo deadline      : %.3f ms (baseline mean %.3f ms, %.0fx overload mean %.3f ms)\n",
		deadline, base, overload, over)
	fprintf(w, "  overload miss rate : ungoverned %.1f%%  governed %.1f%%\n",
		100*res.UngovernedMissRate, 100*res.GovernedMissRate)
	fprintf(w, "  degradation        : max level %s, final level %s\n",
		res.MaxLevel, res.FinalLevel)
	return res, nil
}

// probeAPC measures the mean APC time (ms) at load factor 1 and at the
// given overload factor, on a short throwaway engine.
func probeAPC(o Options, overload float64) (base, over float64, err error) {
	e, err := engine.New(engine.Config{
		Graph:    o.graphConfig(),
		Strategy: sched.NameBusyWait,
		Threads:  o.MaxThreads,
	})
	if err != nil {
		return 0, 0, err
	}
	defer e.Close()
	const n = 100
	for i := 0; i < 30; i++ {
		e.Cycle(nil)
	}
	m := e.RunCycles(n)
	e.SetLoadFactor(overload)
	m2 := e.RunCycles(n)
	return m.APCMeanMS(), m2.APCMeanMS(), nil
}
