package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"djstar/internal/engine"
	"djstar/internal/fleet"
	"djstar/internal/graph"
	"djstar/internal/sched"
	"djstar/internal/synth"
)

// The four workloads. Each is one set of inputs and one way of driving
// the system; bench/README.md says why each exists and which layer it
// is meant to expose.
const (
	wlPaperAPC   = "paper-apc"
	wlDSPSeq     = "dsp-seq"
	wlDSPPool    = "dsp-pool"
	wlFleetChurn = "fleet-churn"
)

var workloadNames = []string{wlPaperAPC, wlDSPSeq, wlDSPPool, wlFleetChurn}

// params sizes one run. Everything that scales with the machine is
// derived from n; everything that scales with run length from seconds.
// The toy values used by the smoke test live in bench_test.go.
type params struct {
	workload  string
	seed      uint64
	seconds   float64 // length of the measured window
	trace     bool
	n         int     // parallelism: min(nproc, 4)
	bars      int     // synthetic track length in 4/4 bars
	warm      int     // warm-up cycles per engine or session
	hashed    int     // leading cycles whose audio is fingerprinted
	setupReps int     // set-ups per run; the median is setup_s
	maxCycles int     // cap on timed cycles per engine (0 = by time only)
	reqRate   float64 // fleet-churn open-loop request rate, 1/s
	probe     float64 // layer-suite size factor (1 = full length)
	outDir    string
}

// fullParams returns the sizes of a real run.
func fullParams(workload string, seed uint64, seconds float64, trace bool) params {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	p := params{
		workload: workload, seed: seed, seconds: seconds, trace: trace,
		n: n, bars: 16, warm: 1000, hashed: 512, setupReps: 3,
		reqRate: 40, probe: 1, outDir: "bench/out",
	}
	if workload == wlPaperAPC {
		p.warm = 512 // 1.4 ms cycles: 512 cover the hashed prefix
	}
	if workload == wlFleetChurn {
		p.warm = 200 // paced at 2.9 ms a cycle
	}
	if trace {
		p.setupReps = 1
	}
	return p
}

// metric is one named measurement; N is the sample count behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// recorder collects a run's metrics and its operation counts.
type recorder struct {
	metrics   map[string]metric
	order     []string
	attempted int64
	failed    int64
	reasons   []string
}

func newRecorder() *recorder { return &recorder{metrics: map[string]metric{}} }

func (r *recorder) put(name string, v float64, unit string, n int) {
	if _, dup := r.metrics[name]; dup {
		r.fail(1, "metric %s emitted twice", name)
		return
	}
	r.metrics[name] = metric{Value: v, Unit: unit, N: n}
	r.order = append(r.order, name)
}

// fail counts n failed operations and keeps the first few reasons.
func (r *recorder) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.failed += n
	if len(r.reasons) < 8 {
		r.reasons = append(r.reasons, fmt.Sprintf(format, args...))
	}
}

// makeTracks renders the four deck tracks of the evaluation set (same
// tempi and keys as synth.StandardDeckTracks) with seeds drawn from the
// benchmark seed. The program under test sees only these inputs.
func makeTracks(seed uint64, bars int) []*synth.Track {
	rng := synth.NewRand(seed)
	specs := []synth.TrackSpec{
		{Name: "deck-a", BPM: 126, Key: 0},
		{Name: "deck-b", BPM: 128, Key: 5},
		{Name: "deck-c", BPM: 124, Key: -4},
		{Name: "deck-d", BPM: 127, Key: 7},
	}
	out := make([]*synth.Track, len(specs))
	for i, s := range specs {
		s.Bars = bars
		s.Seed = rng.Uint64()
		out[i] = synth.GenerateTrack(s)
	}
	return out
}

// graphConfig is the paper's 67-node evaluation graph over tracks.
func graphConfig(tracks []*synth.Track, scale float64, cal graph.Calibration) graph.Config {
	g := graph.DefaultConfig()
	g.Tracks = tracks
	g.Scale = scale
	g.Calibration = cal
	return g
}

// cycleLog is the OnCycle sink of one engine: it keeps every cycle's
// APC in a preallocated array — in a traced run the whole CycleInfo and
// the time the hook ran as well — and checks that cycle numbers advance
// by exactly one. For a fleet session, whose driver the benchmark does
// not own, it also runs the reference spin on the cycle thread after
// every refEvery-th cycle. One goroutine writes (the cycle thread);
// others may read n.
type cycleLog struct {
	apcUS  []float64
	refNS  []float64          // reference spin after every refEvery-th cycle; nil = none
	info   []engine.CycleInfo // traced runs only
	stamps []int64            // ns since t0, traced runs only
	t0     time.Time
	n      atomic.Int64 // hook calls since the last reset
	last   uint64
	gaps   int64 // cycles lost or doubled; read after the writer stopped
}

func newCycleLog(capacity int, spins, traced bool) *cycleLog {
	l := &cycleLog{apcUS: make([]float64, capacity), t0: time.Now()}
	if spins {
		l.refNS = make([]float64, capacity/refEvery+1)
	}
	if traced {
		l.info = make([]engine.CycleInfo, capacity)
		l.stamps = make([]int64, capacity)
	}
	return l
}

func (l *cycleLog) hook(ci engine.CycleInfo) {
	i := l.n.Load()
	if int(i) < len(l.apcUS) {
		l.apcUS[i] = ci.APCMS * 1e3
		if l.info != nil {
			l.info[i] = ci
			l.stamps[i] = int64(time.Since(l.t0))
		}
		if l.refNS != nil && i%refEvery == 0 {
			l.refNS[i/refEvery] = float64(refSpin())
		}
	}
	if ci.Cycle != l.last+1 {
		l.gaps++
	}
	l.last = ci.Cycle
	l.n.Store(i + 1)
}

// clamp brings a hook-call index into the recorded range.
func (l *cycleLog) clamp(i int64) int64 { return min(i, int64(len(l.apcUS))) }

// logCapacity bounds the cycles one engine can complete in a window: a
// paced session makes 344.5 a second; unpaced, 25,000 a second is a
// 40 µs APC, three times faster than pure DSP runs today.
func logCapacity(p params, paced bool) int {
	rate := 25000.0
	if paced {
		rate = 400
	}
	return int(p.seconds*rate) + p.warm + 1024
}

// nWindows is how many equal windows a measured run is cut into. Every
// end-to-end timing is the median over the windows of the window's own
// figure, so a burst from a noisy neighbour spoils one window, not the
// run.
const nWindows = 10

// window is one tenth of a measured run. For a compute-bound workload
// its times are already at reference speed (see ref.go).
type window struct {
	apcUS  []float64 // every cycle's APC
	cycles float64   // cycles completed
	busyS  float64   // the time they took, reference spins excluded
	refNS  []float64 // the reference spins interleaved with them
}

// emitEndToEnd reports the run's APC and throughput as medians over its
// windows and returns the median APC.
func emitEndToEnd(p params, rec *recorder, windows []window, setupS float64) float64 {
	var p50, p90, rate, spins []float64
	n := 0
	for _, w := range windows {
		if len(w.apcUS) == 0 || w.busyS <= 0 {
			continue
		}
		asc := sorted(w.apcUS)
		p50, p90 = append(p50, pct(asc, 0.5)), append(p90, pct(asc, 0.9))
		rate = append(rate, w.cycles/w.busyS)
		spins = append(spins, w.refNS...)
		n += len(asc)
	}
	if !p.trace {
		rec.put("apc_p50_us", median(p50), "us", n)
		rec.put("apc_p90_us", median(p90), "us", n)
		rec.put("cycles_per_s", median(rate), "1/s", n)
		rec.put("setup_s", setupS, "s", p.setupReps)
	} else {
		rec.put("host.ref_spin_ns", median(spins), "ns", len(spins))
	}
	return median(p50)
}

// medianSetup runs build then warm setupReps times, discarding all but
// the last result, and returns that result with the median build time
// in seconds at reference speed (spins taken just before and after each
// build). Warm-up is cycles, which the run itself measures, so it is
// left out of the figure. The heap is collected after every repetition,
// so peak memory is that of one set-up and the collector starts the
// measured window from the same state in every run.
func medianSetup[T any](p params, tr *tracer, build func(parent int32) (T, error), warm func(T, int32) error, discard func(T)) (T, float64, error) {
	var secs []float64
	for i := 0; ; i++ {
		id, end := tr.begin("setup", -1)
		spins := refSpins(32)
		t0 := time.Now()
		env, err := build(id)
		took := time.Since(t0).Seconds()
		secs = append(secs, took*refFactor(append(spins, refSpins(32)...)))
		if err == nil {
			err = warm(env, id)
		}
		end(int64(i))
		if err != nil || i == p.setupReps-1 {
			runtime.GC()
			return env, median(secs), err
		}
		discard(env)
		runtime.GC()
	}
}

// ---- bare-engine workloads (paper-apc, dsp-seq) ----

// engineEnv is one engine built from seeded tracks.
type engineEnv struct {
	eng    *engine.Engine
	tracks []*synth.Track
	log    *cycleLog // nil unless hooked
	hashes []uint64  // MasterOut fingerprint of the leading cycles
}

// setupEngine is the timed set-up of a bare-engine workload: calibrate
// (when spin cost is on), synthesize the tracks, build the engine.
func setupEngine(p params, tr *tracer, parent int32, ecfg engine.Config, scale float64) (*engineEnv, error) {
	var cal graph.Calibration
	if scale > 0 {
		_, end := tr.begin("calibrate", parent)
		cal = graph.Calibrate()
		end(1)
	}
	_, end := tr.begin("synth.tracks", parent)
	tracks := makeTracks(p.seed, p.bars)
	end(int64(len(tracks)))
	return newEngineEnv(p, tr, parent, ecfg, graphConfig(tracks, scale, cal), p.trace)
}

// newEngineEnv builds one engine over gcfg with p.n threads. ecfg
// carries the strategy and any A/B switches; hooked installs a cycle
// log.
func newEngineEnv(p params, tr *tracer, parent int32, ecfg engine.Config, gcfg graph.Config, hooked bool) (*engineEnv, error) {
	env := &engineEnv{tracks: gcfg.Tracks}
	ecfg.Graph = gcfg
	ecfg.Threads = p.n
	if hooked {
		env.log = newCycleLog(logCapacity(p, false), false, true)
		ecfg.Hooks.OnCycle = env.log.hook
	}
	_, end := tr.begin("engine.new", parent)
	eng, err := engine.New(ecfg)
	end(1)
	if err != nil {
		return nil, fmt.Errorf("engine.New(%s): %w", ecfg.Strategy, err)
	}
	env.eng = eng
	return env, nil
}

// warm runs the warm-up cycles, fingerprinting the audio of the leading
// ones, and rewinds the log so the timed cycles start at index 0.
func (env *engineEnv) warm(p params, tr *tracer, parent int32) {
	_, end := tr.begin("warmup", parent)
	out := env.eng.Session().MasterOut()
	for i := 0; i < p.warm; i++ {
		env.eng.Cycle(nil)
		if i < p.hashed {
			env.hashes = append(env.hashes, fnv64(fnv64(fnvOffset, out.L), out.R))
		}
	}
	end(int64(p.warm))
	if env.log != nil {
		env.log.n.Store(0)
	}
}

// cycleRun is a closed loop of timed Cycle calls by one caller.
type cycleRun struct {
	durUS   []float64 // bench-timed around Cycle, so the accounting spine is in
	startNS []int64   // since begin
	refNS   []float64 // the reference spin after cycles 0, refEvery, 2·refEvery, …
	begin   time.Time
	wall    time.Duration
	mallocs uint64
}

// timeCycles calls Cycle back to back for seconds (or maxCycles, if
// sooner), timing every call from outside, with a reference spin
// between cycles every refEvery of them.
func timeCycles(eng *engine.Engine, seconds float64, maxCycles int) cycleRun {
	limit := int(seconds*25000) + 1
	if maxCycles > 0 && maxCycles < limit {
		limit = maxCycles
	}
	r := cycleRun{
		durUS: make([]float64, 0, limit), startNS: make([]int64, 0, limit),
		refNS: make([]float64, 0, limit/refEvery+1),
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	r.begin = time.Now()
	deadline := r.begin.Add(time.Duration(seconds * float64(time.Second)))
	for len(r.durUS) < limit {
		t0 := time.Now()
		eng.Cycle(nil)
		t1 := time.Now()
		if len(r.durUS)%refEvery == 0 {
			r.refNS = append(r.refNS, float64(refSpin()))
		}
		r.durUS = append(r.durUS, float64(t1.Sub(t0))/1e3)
		r.startNS = append(r.startNS, int64(t0.Sub(r.begin)))
		if t1.After(deadline) {
			break
		}
	}
	r.wall = time.Since(r.begin)
	runtime.ReadMemStats(&ms1)
	r.mallocs = ms1.Mallocs - ms0.Mallocs
	return r
}

// windows cuts the run into nWindows equal shares of its cycles. With
// atRefSpeed every cycle's duration, and the time to the next cycle, is
// brought to reference speed by the spins that bracket it.
func (r cycleRun) windows(atRefSpeed bool) []window {
	var out []window
	n := len(r.durUS)
	for k := 0; k < nWindows; k++ {
		from, to := k*n/nWindows, (k+1)*n/nWindows
		if to == from {
			continue
		}
		w := window{
			apcUS: make([]float64, 0, to-from), cycles: float64(to - from),
			refNS: r.refNS[(from+refEvery-1)/refEvery : (to+refEvery-1)/refEvery],
		}
		for i := from; i < to; i++ {
			next := int64(r.wall)
			if i+1 < n {
				next = r.startNS[i+1]
			}
			period := float64(next - r.startNS[i])
			if i%refEvery == 0 {
				period -= r.refNS[i/refEvery]
			}
			f := 1.0
			if atRefSpeed {
				f = blockFactor(r.refNS, i)
			}
			w.apcUS = append(w.apcUS, f*r.durUS[i])
			w.busyS += f * period / 1e9
		}
		out = append(out, w)
	}
	return out
}

// referenceHashes fingerprints the leading cycles of a sequential,
// spin-free engine over the same tracks. Spin cost never touches audio
// and every strategy must be bit-identical to the sequential one, so
// any engine built from these tracks has to reproduce these values.
func referenceHashes(p params, tracks []*synth.Track) ([]uint64, error) {
	ref, err := engine.New(engine.Config{
		Graph: graphConfig(tracks, 0, graph.Calibration{}), Strategy: sched.NameSequential,
	})
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	out := ref.Session().MasterOut()
	hashes := make([]uint64, 0, p.hashed)
	for i := 0; i < p.hashed && i < p.warm; i++ {
		ref.Cycle(nil)
		hashes = append(hashes, fnv64(fnv64(fnvOffset, out.L), out.R))
	}
	return hashes, nil
}

// checkEngineRun applies the correctness gate to a finished closed
// loop: audio equal to the sequential reference, no cycle lost or
// doubled, no allocation per cycle.
func checkEngineRun(p params, rec *recorder, env *engineEnv, run cycleRun) error {
	want, err := referenceHashes(p, env.tracks)
	if err != nil {
		return err
	}
	bad := int64(0)
	for i := range want {
		if i >= len(env.hashes) || env.hashes[i] != want[i] {
			bad++
		}
	}
	rec.fail(bad, "%d of the first %d cycles differ from the sequential reference audio", bad, len(want))
	cycles := int64(len(run.durUS))
	if got := int64(env.eng.Cycles()); got != int64(p.warm)+cycles {
		rec.fail(1, "engine counted %d cycles, bench made %d", got, int64(p.warm)+cycles)
	}
	if env.log != nil {
		rec.fail(env.log.gaps, "%d cycle numbers out of sequence", env.log.gaps)
	}
	if per := run.mallocs / uint64(cycles); per >= 1 {
		rec.fail(cycles, "%d allocations per Cycle, want 0", per)
	}
	return nil
}

// runEngine is paper-apc (busy, Scale 1) and dsp-seq (seq, Scale 0):
// one engine, one caller, a closed loop of Cycle calls. With spin cost
// on, a node costs a wall-clock target whatever the host's speed, so
// only the spin-free run is brought to reference speed.
func runEngine(p params, tr *tracer, rec *recorder, strategy string, scale float64) (float64, error) {
	ecfg := engine.Config{Strategy: strategy}
	env, setupS, err := medianSetup(p, tr,
		func(parent int32) (*engineEnv, error) { return setupEngine(p, tr, parent, ecfg, scale) },
		func(e *engineEnv, parent int32) error { e.warm(p, tr, parent); return nil },
		func(e *engineEnv) { e.eng.Close() })
	if err != nil {
		return 0, err
	}
	defer env.eng.Close()

	runID, end := tr.begin("run", -1)
	run := timeCycles(env.eng, p.seconds, p.maxCycles)
	end(int64(len(run.durUS)))
	rec.attempted += int64(len(run.durUS))
	if err := checkEngineRun(p, rec, env, run); err != nil {
		return 0, err
	}
	p50 := emitEndToEnd(p, rec, run.windows(scale == 0), setupS)
	if p.trace {
		infos := env.log.info[:len(run.durUS)]
		engineCycleSpans(tr, runID, run, infos)
		engineSplit(rec, infos, float64(run.mallocs)/float64(len(run.durUS)))
	}
	return p50, nil
}

// cycleSpan records one cycle as a span whose children are the engine
// stages rebuilt from CycleInfo; what is left of the span's duration is
// its self time — for a bench-timed Cycle call, the accounting spine.
func cycleSpan(tr *tracer, parent, lane int32, start, dur int64, ci engine.CycleInfo) {
	id := tr.add("cycle", lane, parent, start, dur, int64(ci.Cycle))
	for _, st := range []struct {
		name string
		ms   float64
	}{{"engine.tp", ci.TPMS}, {"engine.gp", ci.GPMS}, {"engine.graph", ci.GraphMS}, {"engine.vc", ci.VCMS}} {
		d := int64(st.ms * 1e6)
		tr.add(st.name, lane, id, start, d, 0)
		start += d
	}
}

// traceEvery is the cycle sampling rate of the traced run.
const traceEvery = 64

// engineCycleSpans samples the timed cycles of a closed loop.
func engineCycleSpans(tr *tracer, parent int32, run cycleRun, infos []engine.CycleInfo) {
	if tr == nil {
		return
	}
	base := int64(run.begin.Sub(tr.t0))
	for i := 0; i < len(infos) && i < len(run.durUS); i += traceEvery {
		cycleSpan(tr, parent, 0, base+run.startNS[i], int64(run.durUS[i]*1e3), infos[i])
	}
}

// engineSplit emits the per-stage split of the APC on this workload.
func engineSplit(rec *recorder, infos []engine.CycleInfo, allocsPerCycle float64) {
	n := len(infos)
	tp, gp, gr, vc, apc := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	misses := 0
	for i, ci := range infos {
		tp[i], gp[i], gr[i], vc[i], apc[i] = ci.TPMS*1e3, ci.GPMS*1e3, ci.GraphMS*1e3, ci.VCMS*1e3, ci.APCMS*1e3
		if ci.DeadlineMiss {
			misses++
		}
	}
	rec.put("engine.tp_p50_us", median(tp), "us", n)
	rec.put("engine.gp_p50_us", median(gp), "us", n)
	rec.put("engine.graph_p50_us", median(gr), "us", n)
	rec.put("engine.vc_p50_us", median(vc), "us", n)
	rec.put("engine.graph_p999_us", pct(sorted(gr), 0.999), "us", n)
	rec.put("engine.apc_p99_us", pct(sorted(apc), 0.99), "us", n)
	rec.put("engine.miss_per_10k", float64(misses)/float64(max(n, 1))*1e4, "count", n)
	rec.put("engine.allocs_per_cycle", allocsPerCycle, "count", n)
}

// ---- fleet workloads (dsp-pool, fleet-churn) ----

// fleetEnv is a fleet with its standing sessions running.
type fleetEnv struct {
	f        *fleet.Fleet
	srv      *fleet.Server // nil unless served
	standing []*fleet.Session
	logs     []*cycleLog
}

func (e *fleetEnv) close() {
	if e.srv != nil {
		_ = e.srv.Close() // the listener is only ever read from
	}
	e.f.Close()
}

// setupFleet is the timed set-up of a fleet workload: synthesize the
// tracks, then build and populate the fleet.
func setupFleet(p params, tr *tracer, parent int32, cfg fleet.Config, sessions int, serve bool) (*fleetEnv, error) {
	_, end := tr.begin("synth.tracks", parent)
	tracks := makeTracks(p.seed, p.bars)
	end(int64(len(tracks)))
	cfg.Engine.Graph = graphConfig(tracks, 0, graph.Calibration{})
	return newFleetEnv(p, tr, parent, cfg, sessions, serve)
}

// newFleetEnv builds the fleet cfg describes, adds the standing
// sessions (each with its own OnCycle log) and optionally serves /v1.
func newFleetEnv(p params, tr *tracer, parent int32, cfg fleet.Config, sessions int, serve bool) (*fleetEnv, error) {
	_, end := tr.begin("fleet.new", parent)
	f, err := fleet.New(cfg)
	end(1)
	if err != nil {
		return nil, fmt.Errorf("fleet.New: %w", err)
	}
	env := &fleetEnv{f: f}
	_, end = tr.begin("fleet.add_sessions", parent)
	for i := 0; i < sessions; i++ {
		l := newCycleLog(logCapacity(p, cfg.Period >= 0), true, p.trace)
		s, _, err := f.AddSession(engine.SessionSpec{
			ID:    fmt.Sprintf("standing-%d", i),
			Hooks: engine.Hooks{OnCycle: l.hook},
		})
		if err != nil {
			env.close()
			return nil, fmt.Errorf("fleet.AddSession: %w", err)
		}
		env.standing = append(env.standing, s)
		env.logs = append(env.logs, l)
	}
	end(int64(sessions))
	if serve {
		if env.srv, err = f.Serve("127.0.0.1:0"); err != nil {
			env.close()
			return nil, fmt.Errorf("fleet.Serve: %w", err)
		}
	}
	return env, nil
}

// warm blocks until every standing session has logged p.warm cycles.
func (e *fleetEnv) warm(p params, tr *tracer, parent int32) error {
	_, end := tr.begin("warmup", parent)
	defer end(int64(p.warm))
	deadline := time.Now().Add(60 * time.Second)
	for _, l := range e.logs {
		for l.n.Load() < int64(p.warm) {
			if time.Now().After(deadline) {
				e.close()
				return fmt.Errorf("standing session stuck at %d of %d warm-up cycles", l.n.Load(), p.warm)
			}
			time.Sleep(500 * time.Microsecond)
		}
	}
	return nil
}

// marks reads every standing session's hook-call count.
func (e *fleetEnv) marks() []int64 {
	m := make([]int64, len(e.logs))
	for i, l := range e.logs {
		m[i] = l.n.Load()
	}
	return m
}

// fleetWatch is what the standing sessions did over a measured run:
// their cycle counts at nWindows+1 evenly spaced instants.
type fleetWatch struct {
	marks   [][]int64
	at      []time.Time
	mallocs uint64
}

// watch takes the marks over p.seconds from the calling goroutine,
// which sleeps in between. A toy run stops once the first session has
// made maxCycles.
func (e *fleetEnv) watch(p params) fleetWatch {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	w := fleetWatch{marks: [][]int64{e.marks()}, at: []time.Time{time.Now()}}
	step := time.Duration(p.seconds * float64(time.Second) / nWindows)
	for k := 1; k <= nWindows; k++ {
		next := w.at[0].Add(time.Duration(k) * step)
		for time.Now().Before(next) {
			if p.maxCycles > 0 && e.logs[0].n.Load()-w.marks[0][0] >= int64(p.maxCycles) {
				break
			}
			time.Sleep(time.Millisecond)
		}
		w.marks, w.at = append(w.marks, e.marks()), append(w.at, time.Now())
	}
	runtime.ReadMemStats(&ms1)
	w.mallocs = ms1.Mallocs - ms0.Mallocs
	return w
}

// finish closes the fleet (so the logs are quiescent), applies the
// correctness gate — every cycle logged, cycle numbers advancing by one
// through any migration, engine and log counts equal — and reports the
// standing sessions' APC and throughput. The APC of a spin-free session
// is compute, so it is brought to reference speed; so is the rate of
// unpaced sessions, while a paced rate is the packet clock's. It
// returns the median APC.
func (e *fleetEnv) finish(p params, rec *recorder, w fleetWatch, paced bool, setupS float64) float64 {
	e.close()
	first, last := w.marks[0], w.marks[nWindows]
	cycles := int64(0)
	for i, l := range e.logs {
		if last[i] > int64(len(l.apcUS)) {
			rec.fail(1, "session %d outran its %d-cycle log", i, len(l.apcUS))
		}
		rec.fail(l.gaps, "session %d: %d cycle numbers out of sequence", i, l.gaps)
		if got, logged := e.standing[i].Engine().Cycles(), uint64(l.n.Load()); got != logged {
			rec.fail(1, "session %d: engine counted %d cycles, hook saw %d", i, got, logged)
		}
		cycles += last[i] - first[i]
	}
	rec.attempted += cycles

	windows := make([]window, nWindows)
	for k := range windows {
		win := &windows[k]
		win.busyS = w.at[k+1].Sub(w.at[k]).Seconds()
		for i, l := range e.logs {
			from, to := l.clamp(w.marks[k][i]), l.clamp(w.marks[k+1][i])
			taken := l.refNS[:(to+refEvery-1)/refEvery] // the spins run so far
			spins := taken[(from+refEvery-1)/refEvery:]
			for c := from; c < to; c++ {
				win.apcUS = append(win.apcUS, blockFactor(taken, int(c))*l.apcUS[c])
			}
			win.refNS = append(win.refNS, spins...)
			if paced {
				win.cycles += float64(to - from) // the packet clock's rate, as it is
				continue
			}
			// Sessions run side by side, so each adds its own rate: its
			// cycles over the window less its spins, at reference speed.
			spun := 0.0
			for _, ns := range spins {
				spun += ns
			}
			if busy := (win.busyS - spun/1e9) * refFactor(spins); busy > 0 {
				win.cycles += float64(to-from) * win.busyS / busy
			}
		}
	}
	p50 := emitEndToEnd(p, rec, windows, setupS)
	if p.trace {
		var all []engine.CycleInfo
		for i, l := range e.logs {
			all = append(all, l.info[l.clamp(first[i]):l.clamp(last[i])]...)
		}
		engineSplit(rec, all, float64(w.mallocs)/float64(max(cycles, 1)))
	}
	return p50
}

// fleetCycleSpans samples the standing sessions' cycles, one lane per
// session. The fleet's own driver calls Cycle, so the span is the APC
// ending where the hook ran: stages only, no spine.
func fleetCycleSpans(tr *tracer, parent int32, env *fleetEnv, w fleetWatch) {
	if tr == nil {
		return
	}
	for s, l := range env.logs {
		offset := int64(l.t0.Sub(tr.t0))
		for i := w.marks[0][s]; i < l.clamp(w.marks[nWindows][s]); i += traceEvery {
			apc := int64(l.info[i].APCMS * 1e6)
			cycleSpan(tr, parent, int32(s+1), l.stamps[i]+offset-apc, apc, l.info[i])
		}
	}
}

// runDSPPool is unpaced sessions on one shard's pool: the production
// executor on ~2 µs nodes, so throughput is bound by dispatch. Drivers
// and pool helpers together number N — N/2 sessions, the rest helpers —
// because with more runnable threads than cores the host's scheduler,
// not the pool, sets the slow tenth of cycles and the throughput.
func runDSPPool(p params, tr *tracer, rec *recorder) (float64, error) {
	sessions := max(1, p.n/2)
	cfg := fleet.Config{Shards: 1, Period: -1, WorkersPerShard: p.n - sessions}
	env, setupS, err := medianSetup(p, tr,
		func(parent int32) (*fleetEnv, error) { return setupFleet(p, tr, parent, cfg, sessions, false) },
		func(e *fleetEnv, parent int32) error { return e.warm(p, tr, parent) },
		(*fleetEnv).close)
	if err != nil {
		return 0, err
	}
	runID, end := tr.begin("run", -1)
	w := env.watch(p)
	end(0)
	p50 := env.finish(p, rec, w, false, setupS)
	if cycles := rec.attempted; w.mallocs/uint64(max(cycles, 1)) >= 1 {
		rec.fail(cycles, "%d allocations per Cycle, want 0", w.mallocs/uint64(cycles))
	}
	fleetCycleSpans(tr, runID, env, w)
	return p50, nil
}

// churnStanding is how many standing sessions fleet-churn keeps per unit
// of parallelism. Four keep the box about half busy: with fewer, whether
// two paced sessions happen to tick at the same instant decides the
// median APC, and it differs from run to run.
const churnStanding = 4

// runFleetChurn is the paced fleet behind its /v1 control plane, with
// standing sessions keeping the packet clock while an open-loop client
// reads, edits, creates, deletes and drains beside them.
func runFleetChurn(p params, tr *tracer, rec *recorder) (float64, error) {
	env, setupS, err := medianSetup(p, tr,
		func(parent int32) (*fleetEnv, error) {
			return setupFleet(p, tr, parent, fleet.Config{}, churnStanding*p.n, true)
		},
		func(e *fleetEnv, parent int32) error { return e.warm(p, tr, parent) },
		(*fleetEnv).close)
	if err != nil {
		return 0, err
	}
	runID, end := tr.begin("run", -1)
	done := make(chan churnResult, 1)
	go func() { done <- runLoadgen(p, tr, runID, env) }()
	w := env.watch(p)
	res := <-done
	end(int64(len(res.reqs)))
	p50 := env.finish(p, rec, w, true, setupS)
	res.count(rec)
	fleetCycleSpans(tr, runID, env, w)
	return p50, nil
}
