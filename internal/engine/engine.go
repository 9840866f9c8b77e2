// Package engine drives the audio processing cycle (APC). Following the
// paper's decomposition (§VI):
//
//	T(APC) = T(TP) + T(GP) + T(Graph) + T(VC)
//
// where TP is timecode processing (decoding the control-vinyl signal of
// each deck), GP is graph preprocessing (pulling one resampled packet per
// deck, key-locked by deck.PitchShifter, and refreshing per-cycle state),
// Graph is the task-graph execution under the selected scheduling
// strategy, and VC is various calculations (master tempo, accounting).
// The sound card requests one packet every 2.902 ms; TP+GP+VC average
// ~0.8 ms in the paper, leaving T(Graph) ≤ 2.1 ms as the real-time
// budget.
package engine

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"djstar/internal/audio"
	"djstar/internal/graph"
	"djstar/internal/obs"
	"djstar/internal/sched"
	"djstar/internal/timecode"
)

// Paper-scale component cost targets in µs (§III-B profile: of the APC,
// preprocessing 33 %, graph 38 %, timecode 16 %, remainder ~13 %; with
// the graph at ~0.45 ms that puts the APC near 1.2 ms).
const (
	targetTPUS = 190.0
	targetGPUS = 400.0
	targetVCUS = 150.0
)

// DeadlineMS is the hard APC deadline: one packet period, 2.902 ms;
// deadlineNS is the same in the cycle record's unit.
var (
	DeadlineMS = float64(audio.StandardPacketPeriod) / 1e6
	deadlineNS = int64(audio.StandardPacketPeriod)
)

// GraphBudgetMS is the paper's derived budget for graph execution alone.
const GraphBudgetMS = 2.1

// Config configures an engine instance.
type Config struct {
	// Graph configures the task graph and session (see graph.Config).
	Graph graph.Config
	// Strategy is the scheduling strategy name (sched.Name*).
	Strategy string
	// Threads is the worker count for parallel strategies.
	Threads int
	// Pool, when set, attaches this engine's plan as a session on a
	// shared worker pool instead of building a private scheduler —
	// several engines then execute concurrently over the same workers
	// (see sched.Pool and package fleet). Strategy is ignored when Pool is
	// set. With Strategy == sched.NamePool and no Pool, the scheduler is
	// a private single-session pool of Threads-1 workers.
	Pool *sched.Pool
	// DVS couples deck tempos to the decoded timecode signal, exercising
	// the decode → control path end to end.
	DVS bool
	// DisableGC turns the garbage collector off during timed runs
	// (re-enabled on Close), removing GC pauses from the distribution —
	// see DESIGN.md §6 on busy-wait fidelity in Go.
	DisableGC bool

	// FaultPolicy configures node quarantine (zero fields = sched
	// defaults: quarantine after 3 consecutive faults, probe every 512
	// cycles).
	FaultPolicy sched.FaultPolicy

	// Governor configures the deadline governor (graceful degradation
	// under overload); see GovernorConfig.
	Governor GovernorConfig

	// Admission configures the schedulability gate (refuse / pre-degrade
	// sessions and edits whose analytical bound exceeds the deadline
	// envelope, predict overload from the live cost model); see
	// AdmissionOptions. Off by default.
	Admission AdmissionOptions

	// Watchdog enables the stall watchdog: the engine's monitor goroutine
	// detects a graph execution stuck past the hard wall and reports the
	// offending node instead of letting the process hang silently.
	Watchdog bool
	// WatchdogWallMS is the stall wall in milliseconds (default
	// 50 × DeadlineMS ≈ 145 ms).
	WatchdogWallMS float64

	// Hooks is the consolidated event surface (faults, governor
	// transitions, stalls, per-cycle timings, sampled traces). The zero
	// value is a no-op.
	Hooks Hooks

	// Obs tunes the always-on observability collector (per-node stats,
	// sampled schedule realizations); see ObsOptions.
	Obs ObsOptions

	// Telemetry tunes the always-on production-telemetry sink (latency
	// histograms, SLO budget, flight recorder); see TelemetryOptions.
	Telemetry TelemetryOptions
}

// TelemetryOptions tune the engine's telemetry sink (obs.Sink). The
// zero value keeps it on with the paper's SLO budget (5 misses per
// 10,000 cycles); incident bundles are only written when IncidentDir is
// set.
type TelemetryOptions struct {
	// Disable turns telemetry off entirely — no histograms, no SLO
	// tracking, no flight recorder. Meant for overhead A/B measurement.
	Disable bool
	// SLO sets the deadline-miss budget (zero value = 5 per 10k).
	SLO obs.SLOConfig
	// IncidentDir, when set, enables incident-bundle dumps: on a budget
	// blow-out, quarantine or stall, the flight recorder writes a
	// self-contained JSON bundle there (replay with djanalyze -incident).
	IncidentDir string
	// Session labels this engine's metric series under a shared worker
	// pool (the fleet stamps it; default "0"). Fleet-scoped session IDs
	// stay stable across shard migration.
	Session string
	// Shard labels the metric series with the shard currently hosting
	// the session (fleet mode; empty = label omitted). Migration updates
	// it via Sink.SetShard.
	Shard string
	// OnIncident, when set, is notified after an incident bundle is
	// written (called on the dump goroutine, never the audio path).
	OnIncident func(path string, inc *obs.Incident)
}

// ObsOptions tune the engine's observability collector. The zero value
// keeps it on at the default sampling rate.
type ObsOptions struct {
	// Disable turns the collector off entirely — no per-node stats, no
	// traces, no critical path in Snapshot. Meant for overhead A/B
	// measurement, not production use.
	Disable bool
	// TraceEvery samples every Kth cycle's schedule realization
	// (default obs.DefaultTraceEvery = 32; negative disables traces
	// while keeping node stats).
	TraceEvery int
	// TraceRing is the number of retained realizations (default 8).
	TraceRing int
}

// topology is one epoch of the engine's graph world: the editable graph,
// its compiled plan (what the scheduler runs, and the node-ID space of
// every public API at that epoch), and the observability collector
// sized for it. The bundle is immutable once published; the engine
// replaces the whole bundle atomically at a cycle boundary when an edit
// is adopted, so any thread that Loads it gets a mutually consistent
// (plan, collector) pair.
type topology struct {
	g    *graph.Graph
	plan *graph.Plan
	col  *obs.Collector // nil when cfg.Obs.Disable
}

// Engine owns a session, a compiled plan, a scheduler and the timecode
// front end.
type Engine struct {
	cfg     Config
	session *graph.Session
	// topo is the live topology bundle (see topology). Cross-thread
	// readers (Snapshot, Health, incident dumps, the watchdog) Load it;
	// only the cycle thread Stores it, at edit adoption.
	topo atomic.Pointer[topology]
	// sref holds the active scheduler. It is atomic because Rebind (a
	// cross-pool session migration, executed between cycles) replaces the
	// scheduler while Snapshot/Health readers on other threads look at
	// it. Everywhere else it behaves like a plain field: stored at
	// construction, read via sch().
	sref atomic.Pointer[schedRef]
	// faults is the session's fault/quarantine/shed state, fetched once
	// from the construction-time scheduler. It outlives every executor
	// (plan swaps and Rebind keep the same object), so the governor, the
	// watchdog and the health read-outs hold it for life.
	faults *sched.FaultState
	// editMu serializes edit staging (ApplyEdits / ApplyPatch); staged
	// holds the topology bundle waiting for the next cycle boundary to
	// adopt it (see edit.go).
	editMu sync.Mutex
	staged atomic.Pointer[stagedTopo]
	// lastEdit is the most recent edit outcome (nil until one is staged).
	lastEdit atomic.Pointer[EditOutcome]
	// planEpoch counts adopted plan swaps (0 = construction plan).
	planEpoch atomic.Uint64
	// obsWorkers is the collector shard count, kept so structural edits
	// can rebuild the collector for the new plan with the same sharding.
	obsWorkers int

	seq     *timecode.Sequence
	tcGen   []*timecode.Generator
	tcDec   []*timecode.Decoder
	tcL     []audio.Buffer
	tcR     []audio.Buffer
	tcSpeed []float64

	tpLoad graph.Load
	gpLoad graph.Load
	vcLoad graph.Load

	// lf is the shared runtime load factor on every node and component
	// load; the effective value is userFactor × the governor's factor.
	lf         *graph.LoadFactor
	userFactor atomic.Uint64 // float64 bits
	govFactor  atomic.Uint64 // float64 bits

	gov *governor
	wd  *watchdog
	// adm is the admission gate's runtime (nil when disabled): the
	// construction decision and the predictive monitor.
	adm *admissionRuntime

	// monStop and monDone stop and await the monitor goroutine (nil when
	// neither the watchdog nor the admission refresh needs one).
	monStop, monDone chan struct{}

	// tel is the telemetry sink; nil — the disabled sink, every call a
	// no-op — when cfg.Telemetry.Disable.
	tel *obs.Sink

	// totals is the always-on whole-run accounting behind Snapshot.
	totals Metrics

	// cycleN counts Cycle calls (the watchdog's cycle coordinate).
	// Atomic so edit staging on other threads can stamp outcomes with it.
	cycleN atomic.Uint64

	masterTempo float64
	prevGC      int
	closed      atomic.Bool
	// beforePublish, when set, runs between building a stage and
	// publishing it (a test seam for the adoption race; nil in production).
	beforePublish func()
}

// schedRef wraps the Scheduler interface for atomic.Pointer (interfaces
// with varying concrete types cannot go into atomic.Pointer directly).
type schedRef struct{ s sched.Scheduler }

// sch returns the active scheduler.
func (e *Engine) sch() sched.Scheduler { return e.sref.Load().s }

// sharedSequence is built once per process; it is deterministic and
// read-only after construction.
var sharedSequence = timecode.NewSequence()

// New builds an engine. The graph config's Scale/Calibration also govern
// the TP/GP/VC top-up loads.
func New(cfg Config) (*Engine, error) {
	if cfg.Strategy == "" {
		cfg.Strategy = sched.NameBusyWait
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 4
	}
	// The engine owns the runtime load factor: the governor's critical
	// mode and user overload control (SetLoadFactor) compose through it.
	lf := cfg.Graph.LoadFactor
	if lf == nil {
		lf = graph.NewLoadFactor()
		cfg.Graph.LoadFactor = lf
	}
	session, g, err := graph.BuildDJStar(cfg.Graph)
	if err != nil {
		return nil, err
	}
	plan, err := g.Compile()
	if err != nil {
		return nil, err
	}
	threads := cfg.Threads
	if cfg.Strategy == sched.NameSequential {
		threads = 1
	}
	// The collector is the scheduler's construction-time observer, so it
	// must exist first; its shard count is the session's parallelism.
	obsWorkers := threads
	if cfg.Pool != nil {
		obsWorkers = cfg.Pool.Workers() + 1
	}
	var collector *obs.Collector
	var observer sched.Observer
	if !cfg.Obs.Disable {
		collector = obs.NewCollector(plan, obs.Config{
			Workers:    obsWorkers,
			TraceEvery: cfg.Obs.TraceEvery,
			TraceRing:  cfg.Obs.TraceRing,
		})
		observer = collector
	}
	// Admission front door: hold the session's analytical schedulability
	// bound (static design costs — nothing has run yet) against the
	// deadline envelope BEFORE any scheduler resources are committed.
	// Refusals return here wrapping admission.ErrOverBudget; an
	// admit-degraded verdict is applied after the governor exists.
	var adm *admissionRuntime
	if cfg.Admission.Enabled {
		adm, err = newAdmissionRuntime(&cfg, plan, threads)
		if err != nil {
			return nil, err
		}
	}

	opts := sched.Options{Threads: threads, Observer: observer}
	var scheduler sched.Scheduler
	if cfg.Pool != nil {
		// Shared-pool mode: this engine is one session among many.
		scheduler, err = cfg.Pool.Attach(plan, opts)
	} else {
		scheduler, err = sched.New(cfg.Strategy, plan, opts)
	}
	if err != nil {
		return nil, err
	}

	e := &Engine{
		cfg:         cfg,
		session:     session,
		faults:      scheduler.FaultState(),
		obsWorkers:  obsWorkers,
		seq:         sharedSequence,
		lf:          lf,
		masterTempo: 1,
	}
	e.sref.Store(&schedRef{scheduler})
	e.topo.Store(&topology{g: g, plan: plan, col: collector})
	e.userFactor.Store(math.Float64bits(1))
	e.govFactor.Store(math.Float64bits(1))

	if !cfg.Telemetry.Disable {
		e.tel = obs.NewSink(obs.SinkConfig{
			Strategy:    scheduler.Name(),
			Session:     cfg.Telemetry.Session,
			Shard:       cfg.Telemetry.Shard,
			SLO:         cfg.Telemetry.SLO,
			IncidentDir: cfg.Telemetry.IncidentDir,
			OnIncident:  cfg.Telemetry.OnIncident,
			Fill:        e.fillIncident,
		})
	}

	e.faults.SetFaultPolicy(cfg.FaultPolicy)
	e.faults.SetFaultHandler(e.onFault)
	if cfg.Governor.Enabled {
		e.gov = newGovernor(cfg.Governor, e.faults, func(f float64) {
			e.govFactor.Store(math.Float64bits(f))
			e.applyLoadFactor()
		})
		e.gov.onChange = e.onGovChange
	}
	if cfg.Watchdog {
		wallMS := cfg.WatchdogWallMS
		if wallMS <= 0 {
			wallMS = 50 * DeadlineMS
		}
		e.wd = newWatchdog(e.faults,
			time.Duration(wallMS*float64(time.Millisecond)), e.onStall)
	}
	if adm != nil {
		// Apply the admit-degraded pre-shed (through the governor when
		// present) and publish the initial state. After the governor so
		// forced levels stay consistent.
		e.adm = adm
		adm.install(e)
	}
	e.startMonitor()

	// Timecode front end: one virtual turntable per deck, spinning at the
	// deck's nominal tempo.
	speeds := []float64{1.0, 0.97, 1.03, 0.99}
	for d := 0; d < cfg.Graph.Decks; d++ {
		gen := timecode.NewGenerator(e.seq, audio.SampleRate)
		gen.SetSpeed(speeds[d%len(speeds)])
		gen.Seek(float64(1000 * (d + 1)))
		e.tcGen = append(e.tcGen, gen)
		e.tcDec = append(e.tcDec, timecode.NewDecoder(e.seq, audio.SampleRate))
		e.tcL = append(e.tcL, audio.NewBuffer(audio.PacketSize))
		e.tcR = append(e.tcR, audio.NewBuffer(audio.PacketSize))
		e.tcSpeed = append(e.tcSpeed, speeds[d%len(speeds)])
	}

	e.tpLoad = graph.NewLoad(graph.Cost{BaseUS: targetTPUS}, cfg.Graph.Calibration, cfg.Graph.Scale).WithFactor(lf)
	e.gpLoad = graph.NewLoad(graph.Cost{BaseUS: targetGPUS}, cfg.Graph.Calibration, cfg.Graph.Scale).WithFactor(lf)
	e.vcLoad = graph.NewLoad(graph.Cost{BaseUS: targetVCUS}, cfg.Graph.Calibration, cfg.Graph.Scale).WithFactor(lf)

	if cfg.DisableGC {
		runtime.GC()
		e.prevGC = debug.SetGCPercent(-1)
	}
	return e, nil
}

// applyLoadFactor recomputes the effective load factor from the user and
// governor components.
func (e *Engine) applyLoadFactor() {
	user := math.Float64frombits(e.userFactor.Load())
	gov := math.Float64frombits(e.govFactor.Load())
	e.lf.Set(user * gov)
}

// SetLoadFactor scales every node and component cost target at run time
// (1.0 = nominal). Overload experiments inflate it to simulate a machine
// suddenly too slow for the graph; the governor's critical mode composes
// with it multiplicatively. Safe to call from any thread.
func (e *Engine) SetLoadFactor(f float64) {
	if f < 0 {
		f = 0
	}
	e.userFactor.Store(math.Float64bits(f))
	e.applyLoadFactor()
}

// LoadFactor returns the effective (user × governor) load factor.
func (e *Engine) LoadFactor() float64 { return e.lf.Get() }

// GovLevel returns the governor's current degradation level (GovNormal
// when the governor is disabled).
func (e *Engine) GovLevel() GovLevel {
	if e.gov == nil {
		return GovNormal
	}
	return e.gov.Level()
}

// Health is a point-in-time snapshot of the engine's fault-tolerance and
// degradation state.
type Health struct {
	// Level is the governor's degradation level.
	Level GovLevel
	// LoadFactor is the effective (user × governor) load factor.
	LoadFactor float64
	// WindowMissRate and WindowGraphP99MS are the governor's last
	// completed evaluation window (0 when disabled).
	WindowMissRate   float64
	WindowGraphP99MS float64
	// Faults are the scheduler's cumulative fault counters.
	Faults sched.FaultStats
	// Quarantined lists the currently quarantined node names.
	Quarantined []string
	// Stalls is the watchdog's cumulative stall count; LastStall is the
	// most recent record (nil if none, or watchdog disabled).
	Stalls    int64
	LastStall *StallRecord
}

// Health assembles a health snapshot. It allocates (the quarantine list)
// and is meant for UI/telemetry rates, not the audio hot path.
func (e *Engine) Health() Health {
	h := Health{
		Level:      e.GovLevel(),
		LoadFactor: e.lf.Get(),
		Faults:     e.faults.Faults(),
	}
	if e.gov != nil {
		h.WindowMissRate = math.Float64frombits(e.gov.lastRate.Load())
		h.WindowGraphP99MS = math.Float64frombits(e.gov.lastP99.Load())
	}
	t := e.topo.Load()
	for i := range t.plan.Names {
		if e.faults.Quarantined(int32(i)) {
			h.Quarantined = append(h.Quarantined, t.plan.Names[i])
		}
	}
	if e.wd != nil {
		h.Stalls = e.wd.stalls.Load()
		h.LastStall = e.wd.last.Load()
	}
	return h
}

// Session exposes the audio session (decks, mixer, FX) for live control.
func (e *Engine) Session() *graph.Session { return e.session }

// SessionID returns the engine's session label — the OpenMetrics
// "session" label and the /v1 resource ID. The fleet stamps it at
// construction; a standalone engine defaults to "0".
func (e *Engine) SessionID() string {
	if e.cfg.Telemetry.Session != "" {
		return e.cfg.Telemetry.Session
	}
	return "0"
}

// Cycles returns the engine's cycle count (any thread).
func (e *Engine) Cycles() uint64 { return e.cycleN.Load() }

// SessionBaseUS is the analytical per-cycle cost of the non-graph APC
// components (TP+GP+VC) at the given graph scale — the BaseUS term of
// admission envelopes.
func SessionBaseUS(scale float64) float64 {
	return (targetTPUS + targetGPUS + targetVCUS) * scale
}

// Rebind migrates a pool-attached engine onto another shared pool — the
// shard-drain primitive. The session's plan, node state (decks, delay
// lines, FX), observer and cycle count all carry over, and the fault
// state is the same object before and after (so the governor and the
// watchdog, which hold it, need no re-pointing); only the executor
// changes, via sched.Pool.AttachMigrated, so no cycle is lost or doubled.
// Any staged-but-unadopted topology edit survives and adopts at the next
// cycle on the new pool.
//
// The caller must guarantee no Cycle is in flight (fleet drivers call it
// strictly between cycles). The destination pool must not expose more
// parallelism than the source (workers+1 ≤ the collector's shard count);
// fleet shards are sized symmetrically so this holds by construction.
func (e *Engine) Rebind(dst *sched.Pool) error {
	if e.closed.Load() {
		return fmt.Errorf("engine: Rebind after Close")
	}
	if dst == nil {
		return fmt.Errorf("engine: Rebind needs a pool")
	}
	ps, ok := e.sch().(*sched.PoolSession)
	if !ok {
		return fmt.Errorf("engine: Rebind needs a pool-attached session (strategy %q)", e.sch().Name())
	}
	if dst.Workers()+1 > e.obsWorkers {
		return fmt.Errorf("engine: Rebind target exposes %d workers, observer is sized for %d",
			dst.Workers()+1, e.obsWorkers)
	}
	ns, err := dst.AttachMigrated(ps, sched.Options{})
	if err != nil {
		return err
	}
	e.sref.Store(&schedRef{ns})
	e.cfg.Pool = dst
	return nil
}

// Plan exposes the compiled task graph of the current epoch.
func (e *Engine) Plan() *graph.Plan { return e.topo.Load().plan }

// Graph exposes the live (editable) task graph of the current epoch —
// the base for building EditSets against current node IDs. A staged or
// concurrently adopted edit may obsolete IDs read from it; ApplyEdits
// validates every reference and fails cleanly on stale ones.
func (e *Engine) Graph() *graph.Graph { return e.topo.Load().g }

// Scheduler exposes the active scheduler.
func (e *Engine) Scheduler() sched.Scheduler { return e.sch() }

// Collector exposes the observability collector of the current epoch
// (nil when disabled via ObsOptions.Disable). Structural edits replace
// it — long-lived readers should re-fetch rather than cache it.
func (e *Engine) Collector() *obs.Collector { return e.topo.Load().col }

// PlanEpoch counts topology swaps adopted so far (0 = the
// construction-time plan is still live). Safe from any thread.
func (e *Engine) PlanEpoch() uint64 { return e.planEpoch.Load() }

// startMonitor starts the engine's one background goroutine when it has
// work: every tick it hands the watchdog the time, and every PredictEvery
// it refreshes the admission prediction.
func (e *Engine) startMonitor() {
	var tick, every time.Duration
	if e.wd != nil {
		tick = max(e.wd.wall/8, time.Millisecond) // a stall is seen within wall*9/8
	}
	if e.adm != nil && e.adm.every > 0 {
		every = e.adm.every
		if tick == 0 || every < tick {
			tick = every
		}
	}
	if tick == 0 {
		return
	}
	e.monStop, e.monDone = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(e.monDone)
		t := time.NewTicker(tick)
		defer t.Stop()
		refreshEvery := max(int(every/tick), 1)
		for n := 1; ; n++ {
			select {
			case <-e.monStop:
				return
			case <-t.C:
			}
			if e.wd != nil {
				e.wd.check(graph.NowNanos())
			}
			if every > 0 && n%refreshEvery == 0 {
				e.adm.refresh(e)
			}
		}
	}()
}

// Close releases the scheduler workers and restores the GC setting.
// Close is idempotent and safe to call while an edit is staged: a
// staged topology holds no running resources, so it is simply dropped.
func (e *Engine) Close() {
	if !e.closed.CompareAndSwap(false, true) {
		return
	}
	if e.monStop != nil {
		close(e.monStop)
		<-e.monDone
	}
	e.tel.Flush()
	e.staged.Store(nil)
	e.sch().Close()
	if e.cfg.DisableGC {
		debug.SetGCPercent(e.prevGC)
	}
}

// RunCycles executes n audio processing cycles back to back (as fast as
// the machine allows) and returns their totals. This is the evaluation
// mode: the paper's numbers are execution times per cycle, not
// wall-clock pacing.
func (e *Engine) RunCycles(n int) *Metrics {
	m := &Metrics{}
	for i := 0; i < n; i++ {
		e.Cycle(m)
	}
	return m
}

// WarmUpCycles is the evaluation warm-up before a measured run of n
// cycles: enough unrecorded cycles to fill delay lines and fault in all
// memory.
func WarmUpCycles(n int) int { return min(n/10+1, 200) }

// MeasuredRun is the evaluation's one measured run: WarmUpCycles(n)
// unrecorded cycles, then n cycles into fresh totals. keepSamples
// retains every cycle's graph and APC time for percentiles.
func (e *Engine) MeasuredRun(n int, keepSamples bool) *Metrics {
	e.RunCycles(WarmUpCycles(n))
	m := &Metrics{KeepSamples: keepSamples}
	for i := 0; i < n; i++ {
		e.Cycle(m)
	}
	return m
}

// Totals is the engine's own account of every cycle it has run — what
// Snapshot reports. Read-only for callers; safe from any thread.
func (e *Engine) Totals() *Metrics { return &e.totals }

// Cycle executes one APC, accumulating into m (which may be nil). The
// five stage stamps are the cycle's only clock reads outside the load
// top-ups; everything downstream is fed from the one cycleRecord.
func (e *Engine) Cycle(m *Metrics) {
	// Adopt a staged topology edit first, so the whole cycle runs on one
	// plan. The Load on the nil fast path is one uncontended atomic read.
	if e.staged.Load() != nil {
		e.adoptStaged()
	}
	t0 := graph.NowNanos()

	// TP: timecode processing. Generate each turntable's control packet
	// (the hardware substitution) and decode it; when DVS control is on,
	// the decoded speed drives the deck tempo.
	e.timecodeStage(t0)
	t1 := graph.NowNanos()

	// GP: graph preprocessing — resampled (and key-locked) deck packets,
	// activity flags.
	e.session.Prepare()
	e.gpLoad.RunSince(t1, false)
	t2 := graph.NowNanos()

	// Graph: the task graph under the configured scheduling strategy,
	// under the stall watchdog when enabled.
	cyc := e.cycleN.Add(1)
	if e.wd != nil {
		e.wd.arm(cyc, t2)
	}
	e.sch().Execute()
	if e.wd != nil {
		e.wd.disarm()
	}
	t3 := graph.NowNanos()

	// VC: various calculations (master tempo smoothing, accounting).
	e.variousCalculations(t3)
	t4 := graph.NowNanos()

	rec := cycleRecord{
		cycle: cyc,
		tp:    t1 - t0, gp: t2 - t1, graph: t3 - t2, vc: t4 - t3,
		apc: t4 - t0,
	}
	rec.miss = rec.apc > deadlineNS
	if e.gov != nil {
		e.gov.observe(nsToMS(rec.apc), nsToMS(rec.graph))
		rec.gov = e.gov.Level()
	}
	e.totals.add(&rec)
	e.tel.RecordCycle(cyc, graph.UnixSec(t4), rec.apc, rec.graph, rec.miss, int32(rec.gov))
	if e.cfg.Hooks.OnCycle != nil {
		e.cfg.Hooks.OnCycle(rec.info())
	}
	if m != nil {
		m.add(&rec)
		if m.KeepSamples {
			m.GraphSamplesMS = append(m.GraphSamplesMS, nsToMS(rec.graph))
			m.APCSamplesMS = append(m.APCSamplesMS, nsToMS(rec.apc))
		}
	}
}

// timecodeStage runs the TP component for all decks; start is the
// stage's opening stamp, which the load top-up counts from.
func (e *Engine) timecodeStage(start int64) {
	for d := range e.tcGen {
		e.tcGen[d].Generate(e.tcL[d], e.tcR[d])
		e.tcDec[d].Decode(e.tcL[d], e.tcR[d])
		if e.cfg.DVS && e.tcDec[d].Locked() {
			if sp := e.tcDec[d].Speed(); sp > 0 {
				e.session.Decks[d].SetTempo(sp)
			}
		}
	}
	e.tpLoad.RunSince(start, false)
}

// variousCalculations runs the VC component (start as in timecodeStage).
func (e *Engine) variousCalculations(start int64) {
	// Master tempo: smoothed average of the playing decks.
	sum, cnt := 0.0, 0
	for _, d := range e.session.Decks {
		if d.Playing() {
			sum += d.Tempo()
			cnt++
		}
	}
	if cnt > 0 {
		e.masterTempo += 0.05 * (sum/float64(cnt) - e.masterTempo)
	}
	e.vcLoad.RunSince(start, false)
}

// TimecodeLocked reports whether deck d's decoder has a position fix.
func (e *Engine) TimecodeLocked(d int) bool { return e.tcDec[d].Locked() }

// SetTurntableSpeed changes virtual turntable d's speed (scratching).
// Safe to call from any goroutine; the cycle thread picks the speed up at
// its next packet.
func (e *Engine) SetTurntableSpeed(d int, speed float64) {
	if d >= 0 && d < len(e.tcGen) {
		e.tcGen[d].SetSpeed(speed)
	}
}

// RealtimeReport is the outcome of a paced RunRealtime session.
type RealtimeReport struct {
	Metrics *Metrics
	// Late counts packets whose computation finished after the sound
	// card's request time — the glitches a listener would hear.
	Late int
	// MaxLatenessMS is the worst overrun.
	MaxLatenessMS float64
}

// resyncPeriods is how many periods late a cycle may finish before
// pacing stops catching up (a long migration, a descheduled host).
const resyncPeriods = 16

// pace is the packet clock's periodic-release arithmetic. The cycle due
// at due completed at now, late by late (> 0 counts); the next cycle is
// released at release (at once if already past, catching up) and due at
// next. Past resyncPeriods late the clock restarts: next is now + period.
// A period ≤ 0 is unpaced: no wait, nothing late.
func pace(due, now int64, period time.Duration) (late, release, next int64) {
	if period <= 0 {
		return 0, now, now
	}
	if late = now - due; late > resyncPeriods*int64(period) {
		due = now
	}
	return late, due, due + int64(period)
}

// RunRealtime runs up to n cycles paced to a packet clock of the given
// period (≤ 0 runs them back to back), sleeping until each release that
// pace computes. It is the one paced loop: djstar's realtime mode and
// every fleet session driver run through it.
//
// between, when non-nil, is called on the cycle thread after every
// cycle, in the slack before the next packet request, with the counts of
// cycles done and of late packets so far; returning false ends the run
// at that boundary. It is where a driver stages edits, runs control
// closures, tapes the record bus, prints status and honours a stop.
func (e *Engine) RunRealtime(n int, period time.Duration, between func(done, late int) bool) *RealtimeReport {
	rep := &RealtimeReport{Metrics: &Metrics{}}
	due := graph.NowNanos() + int64(period)
	for i := 0; i < n; i++ {
		e.Cycle(rep.Metrics)
		late, release, next := pace(due, graph.NowNanos(), period)
		due = next
		if late > 0 {
			rep.Late++
			rep.MaxLatenessMS = max(rep.MaxLatenessMS, float64(late)/1e6)
		}
		if between != nil && !between(i+1, rep.Late) {
			break
		}
		graph.SleepUntil(release)
	}
	return rep
}
