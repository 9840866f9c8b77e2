package engine

import (
	"math"
	"slices"
	"sync/atomic"

	"djstar/internal/sched"
	"djstar/internal/stats"
)

// GovLevel is the deadline governor's degradation level. Levels are
// ordered: each one sheds strictly more work than the previous. A
// level's value is its rung on graph.NodeKind.ShedAt's ladder, which is
// how the admission gate's rungs and the governor's levels convert.
type GovLevel int32

const (
	// GovNormal runs the full graph.
	GovNormal GovLevel = iota
	// GovDegraded1 sheds the meter and control nodes — UI-only work that
	// is invisible to the audio path.
	GovDegraded1
	// GovDegraded2 additionally bypasses the FX nodes: the mix stays
	// intact, just dry.
	GovDegraded2
	// GovCritical additionally scales the load factor down (cheaper
	// kernels at reduced quality) — the last stop before audible drops.
	GovCritical
)

// String returns the level label.
func (l GovLevel) String() string {
	switch l {
	case GovNormal:
		return "normal"
	case GovDegraded1:
		return "degraded1"
	case GovDegraded2:
		return "degraded2"
	case GovCritical:
		return "critical"
	default:
		return "unknown"
	}
}

// GovernorConfig tunes the deadline governor. Zero fields take defaults.
type GovernorConfig struct {
	// Enabled turns the governor on.
	Enabled bool
	// DeadlineMS is the APC deadline whose misses drive escalation
	// (default DeadlineMS, the 2.902 ms packet period).
	DeadlineMS float64
	// GraphBudgetMS is the graph-time budget whose p99 drives escalation
	// (default GraphBudgetMS, 2.1 ms).
	GraphBudgetMS float64
	// Window is the evaluation window in cycles (default 128): miss rate
	// and p99 are assessed once per window.
	Window int
	// EscalateMissRate escalates one level when the window's APC miss
	// rate exceeds it (default 0.05).
	EscalateMissRate float64
	// CleanWindows is how many consecutive miss-free windows trigger
	// de-escalation by one level (default 4) — the hysteresis that stops
	// the governor from oscillating at a load boundary.
	CleanWindows int
	// RecoverMissRate is the highest window miss rate that still counts
	// toward the CleanWindows recovery streak (default 0: strictly
	// miss-free). On hosts with ambient scheduling noise a stray OS
	// preemption dirties an occasional window forever, making rate == 0
	// unreachable and pinning the governor at a degraded level after the
	// overload is gone; a small tolerance (well under EscalateMissRate)
	// lets recovery distinguish noise from load.
	RecoverMissRate float64
}

// criticalFactor is the load-factor multiplier applied at GovCritical.
const criticalFactor = 0.5

func (c GovernorConfig) withDefaults() GovernorConfig {
	if c.DeadlineMS <= 0 {
		c.DeadlineMS = DeadlineMS
	}
	if c.GraphBudgetMS <= 0 {
		c.GraphBudgetMS = GraphBudgetMS
	}
	if c.Window <= 0 {
		c.Window = 128
	}
	if c.EscalateMissRate <= 0 {
		c.EscalateMissRate = 0.05
	}
	if c.CleanWindows <= 0 {
		c.CleanWindows = 4
	}
	if c.RecoverMissRate < 0 {
		c.RecoverMissRate = 0
	}
	return c
}

// governor is the engine's graceful-degradation state machine. It runs
// entirely on the cycle thread (observe is called once per cycle between
// graph executions); only the level is published atomically for Health
// readers on other threads.
type governor struct {
	cfg GovernorConfig
	// faults is the session's shed-bit store; it knows the live base plan
	// across edits and migrations, so the governor never re-points.
	faults *sched.FaultState

	level atomic.Int32

	// Window accounting (cycle thread only).
	cycles  int
	misses  int
	graphMS []float64 // window's graph times, for the p99 trigger
	clean   int       // consecutive miss-free windows
	// Last completed window's miss rate / p99, published for Health
	// readers on other threads (float64 bits).
	lastRate    atomic.Uint64
	lastP99     atomic.Uint64
	escalates   atomic.Int64
	deescalates atomic.Int64

	// predicted is set by the admission monitor (another goroutine) when
	// the live cost model pushes the recomputed schedulability bound over
	// the envelope; the next window boundary escalates on it even with a
	// clean miss record — degradation BEFORE the first audible miss.
	// Swap(false) at the window boundary makes it one escalation per
	// over-budget signal; the monitor re-arms it while the overload lasts.
	predicted        atomic.Bool
	predictEscalates atomic.Int64

	// onChange, when set, is notified of level transitions (cycle thread).
	onChange func(from, to GovLevel)
	// setFactor applies the governor's load-factor multiplier (the engine
	// composes it with the user's overload factor).
	setFactor func(float64)
}

func newGovernor(cfg GovernorConfig, fs *sched.FaultState, setFactor func(float64)) *governor {
	cfg = cfg.withDefaults()
	return &governor{
		cfg:       cfg,
		faults:    fs,
		graphMS:   make([]float64, 0, cfg.Window),
		setFactor: setFactor,
	}
}

// Level returns the current degradation level (any thread).
func (g *governor) Level() GovLevel { return GovLevel(g.level.Load()) }

// observe feeds one cycle's APC and graph times; once per window it
// decides whether to escalate or recover.
func (g *governor) observe(apcMS, graphMS float64) {
	g.cycles++
	if apcMS > g.cfg.DeadlineMS {
		g.misses++
	}
	g.graphMS = append(g.graphMS, graphMS)
	if g.cycles < g.cfg.Window {
		return
	}
	rate := float64(g.misses) / float64(g.cycles)
	// In place: the window is discarded below, and the cycle thread must
	// not allocate.
	slices.Sort(g.graphMS)
	p99 := stats.SortedQuantile(g.graphMS, 0.99)
	g.lastRate.Store(math.Float64bits(rate))
	g.lastP99.Store(math.Float64bits(p99))
	g.cycles = 0
	g.misses = 0
	g.graphMS = g.graphMS[:0]

	level := g.Level()
	predicted := g.predicted.Swap(false)
	switch {
	case rate > g.cfg.EscalateMissRate || p99 > g.cfg.GraphBudgetMS:
		g.clean = 0
		if level < GovCritical {
			g.transition(level, level+1)
			g.escalates.Add(1)
		}
	case predicted:
		// Predictive rung: the admission monitor's recomputed bound says
		// the envelope will blow even though this window was clean. Shed
		// ahead of the miss; the ordinary CleanWindows hysteresis recovers
		// once the bound (and the misses it predicted) stay away.
		g.clean = 0
		if level < GovCritical {
			g.transition(level, level+1)
			g.escalates.Add(1)
			g.predictEscalates.Add(1)
		}
	case rate <= g.cfg.RecoverMissRate:
		g.clean++
		if g.clean >= g.cfg.CleanWindows && level > GovNormal {
			g.transition(level, level-1)
			g.deescalates.Add(1)
			g.clean = 0
		}
	default:
		// Some misses, above the recovery tolerance but under the
		// escalation threshold: hold the level and restart the clean
		// streak.
		g.clean = 0
	}
}

// transition applies a level change: shedding by node kind, the critical
// load factor, and the change notification.
func (g *governor) transition(from, to GovLevel) {
	g.level.Store(int32(to))
	shedLevel(g.faults, to)
	f := 1.0
	if to >= GovCritical {
		f = criticalFactor
	}
	g.setFactor(f)
	if g.onChange != nil {
		g.onChange(from, to)
	}
}

// shedLevel pushes the shed bits a level implies into the fault state.
// A level is a rung of graph.NodeKind.ShedAt's ladder — meter and
// control nodes go at GovDegraded1, FX nodes at GovDegraded2 — the rule
// admission's degraded cost models use too. Shed bits are per node of
// fs.Plan.
func shedLevel(fs *sched.FaultState, level GovLevel) {
	for i, k := range fs.Plan().Kinds {
		fs.SetNodeShed(int32(i), k.ShedAt(int(level)))
	}
}

// force jumps the governor straight to a level (admission's
// admit-degraded rung pre-sheds through it so the level, the shed bits
// and the hysteresis state stay consistent). Construction time or cycle
// thread only, like transition.
func (g *governor) force(to GovLevel) {
	if from := g.Level(); from != to {
		g.transition(from, to)
	}
}

// retarget replays the current level's shed bits after a plan swap —
// nodes that joined in the edit pick up the level's shedding, removed
// ones vanished with their bits. Cycle thread only (like
// observe/transition), after the scheduler has adopted the new plan.
func (g *governor) retarget() { shedLevel(g.faults, g.Level()) }
