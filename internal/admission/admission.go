// Package admission computes analytical schedulability bounds for
// compiled task-graph plans and turns them into admission decisions —
// the front door the engine consults before a session, a live edit or a
// cost drift is allowed to consume the 2.902 ms packet period.
//
// The paper's ~5-per-10,000 deadline-miss guarantee is otherwise only
// *observed* (by the telemetry SLO window) after misses have already
// happened. This package makes the compile-time cost and rank machinery
// load-bearing instead: from per-node cost estimates (live measured
// means when available, the static design table otherwise) it derives a
// response-time upper bound per strategy and refuses or degrades work
// whose bound does not fit the deadline envelope — response-time
// analysis in the spirit of Lupu & Goossens for multi-thread periodic
// tasks, specialized to the DJ Star graph.
//
// Bound derivation (DESIGN.md §15). Let W be the total work, CP the
// critical path and m the parallelism. For the work-conserving
// executors (work-stealing, the shared pool) Graham's greedy-scheduling
// theorem gives makespan ≤ CP + (W − CP)/m; per-node dispatch overhead
// adds n·check/m. The static round-robin executors (busy, sleep,
// sleepscan, static) are NOT work-conserving — their fixed assignment
// can stall arbitrarily past Graham's bound — so their bound is the
// deterministic rescon strategy simulation of the exact assignment
// discipline, which includes the per-node check cost and (for the
// sleepers) the wake-up penalty. The sequential baseline is W + n·check
// exactly. Every bound is then inflated by a safety margin covering
// mean-vs-tail spread and timing noise, and compared against the
// envelope: margin × (base + graphBound) ≤ period, where base is the
// non-graph APC work (TP + GP + VC). The bound is falsifiable: the
// property suite asserts measured makespans never exceed it, and
// djanalyze -admit prints it beside measured p99 per strategy.
package admission

import (
	"errors"
	"fmt"

	"djstar/internal/audio"
	"djstar/internal/graph"
	"djstar/internal/rescon"
)

// ErrOverBudget is the sentinel wrapped by every refusal: the analytical
// response-time bound exceeds the deadline envelope even after the
// degradation ladder. Callers distinguish refuse-vs-retry with
// errors.Is.
var ErrOverBudget = errors.New("admission: analytical bound exceeds the deadline envelope")

// DefaultPeriodUS is the APC deadline envelope in microseconds: one
// packet period, audio.StandardPacketPeriod — the deadline the engine
// counts misses against.
var DefaultPeriodUS = float64(audio.StandardPacketPeriod) / 1e3

// DefaultMargin is the safety factor applied to the mean-cost bound.
// The bound models mean node costs; the 5-per-10k miss budget tolerates
// only the tail, so the margin must cover the mean→p99 spread of the
// measured distributions (≈1.1–1.2× for the spin-calibrated kernels)
// plus scheduler noise.
const DefaultMargin = 1.25

// Config parameterizes the analysis. The zero value takes the paper's
// deadline and the default margin/overheads.
type Config struct {
	// PeriodUS is the deadline envelope in µs (default the 2.902 ms
	// packet period).
	PeriodUS float64
	// Margin is the safety factor on the mean-cost bound (default 1.25).
	Margin float64
	// Overheads are the per-node dispatch and wake costs fed to the
	// strategy simulations (zero fields default to 0.5 µs check / 10 µs
	// wake, the values EXPERIMENTS.md A2 calibrated for Fig. 12).
	Overheads rescon.StrategyOverheads
	// BaseUS is the non-graph APC work (TP + GP + VC) in µs at the
	// running scale; the engine fills it from its component targets.
	// Negative means explicitly zero (analysis of the graph alone).
	BaseUS float64
}

func (c Config) withDefaults() Config {
	if c.PeriodUS <= 0 {
		c.PeriodUS = DefaultPeriodUS
	}
	if c.Margin <= 0 {
		c.Margin = DefaultMargin
	}
	if c.Overheads.CheckUS <= 0 {
		c.Overheads.CheckUS = 0.5
	}
	if c.Overheads.WakeUS <= 0 {
		c.Overheads.WakeUS = 10
	}
	if c.BaseUS < 0 {
		c.BaseUS = 0
	}
	return c
}

// Report is one plan's schedulability analysis under one (strategy,
// threads) configuration. All times are microseconds.
type Report struct {
	Strategy string `json:"strategy"`
	Threads  int    `json:"threads"`
	Nodes    int    `json:"nodes"`
	// Source records where the node costs came from: "measured" (live
	// collector means) or "static" (the design-cost table).
	Source string `json:"source"`

	// TotalWorkUS is the sequential sum of node costs; CritPathUS the
	// earliest-start makespan (the absolute lower bound at any
	// parallelism); ListUS the HEFT upward-rank list schedule's makespan
	// (the near-optimal reference, not a bound).
	TotalWorkUS float64 `json:"total_work_us"`
	CritPathUS  float64 `json:"crit_path_us"`
	ListUS      float64 `json:"list_us"`

	// GrahamUS is CP + (W − CP)/m + n·check/m, the work-conserving upper
	// bound; SimUS the strategy simulation's makespan (0 when the
	// strategy has no static simulation); GraphBoundUS the bound actually
	// used: max of the applicable components.
	GrahamUS     float64 `json:"graham_us"`
	SimUS        float64 `json:"sim_us,omitempty"`
	GraphBoundUS float64 `json:"graph_bound_us"`

	// BaseUS is the non-graph APC work; BoundUS the final response-time
	// bound margin × (BaseUS + GraphBoundUS); EnvelopeUS the deadline it
	// is held against; HeadroomUS = EnvelopeUS − BoundUS (negative when
	// over budget); UtilRatio = BoundUS / EnvelopeUS.
	BaseUS     float64 `json:"base_us"`
	BoundUS    float64 `json:"bound_us"`
	EnvelopeUS float64 `json:"envelope_us"`
	HeadroomUS float64 `json:"headroom_us"`
	UtilRatio  float64 `json:"util_ratio"`
}

// Fits reports whether the bound is inside the envelope.
func (r *Report) Fits() bool { return r.BoundUS <= r.EnvelopeUS }

// String renders the report one-line, for logs and flight events.
func (r *Report) String() string {
	return fmt.Sprintf("%s/%d: bound %.0f µs vs envelope %.0f µs (graph %.0f, cp %.0f, work %.0f, %s costs, util %.2f)",
		r.Strategy, r.Threads, r.BoundUS, r.EnvelopeUS,
		r.GraphBoundUS, r.CritPathUS, r.TotalWorkUS, r.Source, r.UtilRatio)
}

// Analyze computes the schedulability report for a compiled plan under
// per-node costs (µs, execution scale), a strategy name and an
// effective parallelism. source labels the cost provenance ("measured"
// or "static").
func Analyze(plan *graph.Plan, costsUS []float64, strategy string, threads int, source string, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if threads < 1 {
		threads = 1
	}
	m, err := rescon.FromPlan(plan, costsUS)
	if err != nil {
		return nil, err
	}
	r := &Report{
		Strategy:   strategy,
		Threads:    threads,
		Nodes:      plan.Len(),
		Source:     source,
		EnvelopeUS: cfg.PeriodUS,
		BaseUS:     cfg.BaseUS,
	}
	r.TotalWorkUS = m.TotalWork()
	r.CritPathUS = m.CriticalPathUS()
	if ls, err := m.ListSchedule(threads); err == nil {
		r.ListUS = ls.MakespanUS
	}
	n := float64(plan.Len())
	r.GrahamUS = rescon.GrahamBound(r.TotalWorkUS, r.CritPathUS, threads) +
		n*cfg.Overheads.CheckUS/float64(threads)

	switch strategy {
	case "seq":
		r.GraphBoundUS = r.TotalWorkUS + n*cfg.Overheads.CheckUS
	case "sleep", "sleepscan":
		sim, err := m.SimulateSleep(threads, cfg.Overheads)
		if err != nil {
			return nil, err
		}
		r.SimUS = sim.MakespanUS
		r.GraphBoundUS = maxf(r.GrahamUS, r.SimUS)
	case "busy", "static":
		sim, err := m.SimulateBusy(threads, cfg.Overheads)
		if err != nil {
			return nil, err
		}
		r.SimUS = sim.MakespanUS
		r.GraphBoundUS = maxf(r.GrahamUS, r.SimUS)
	default: // work-conserving: ws, pool
		r.GraphBoundUS = r.GrahamUS
	}
	r.BoundUS = cfg.Margin * (cfg.BaseUS + r.GraphBoundUS)
	r.HeadroomUS = r.EnvelopeUS - r.BoundUS
	if r.EnvelopeUS > 0 {
		r.UtilRatio = r.BoundUS / r.EnvelopeUS
	}
	return r, nil
}

// ShedCosts returns a copy of costsUS with the nodes shed at ladder rung
// zeroed (graph.NodeKind.ShedAt) — the cost model of the governor's
// degraded levels. Shed nodes still dispatch (the bypass stand-in runs),
// so the per-node check overhead in the analysis is unchanged; only the
// kernel cost vanishes.
func ShedCosts(plan *graph.Plan, costsUS []float64, rung int) []float64 {
	out := append([]float64(nil), costsUS...)
	for i, k := range plan.Kinds {
		if i < len(out) && k.ShedAt(rung) {
			out[i] = 0
		}
	}
	return out
}

// rungLabels names what each ladder rung sheds.
var rungLabels = [graph.MaxShedRung + 1]string{"", "meters+control", "meters+control+fx"}

// Verdict is the outcome of the admission ladder.
type Verdict int

const (
	// VerdictAdmit: the full graph's bound fits the envelope.
	VerdictAdmit Verdict = iota
	// VerdictDegraded: the full graph does not fit, but a pre-shed
	// configuration (meters/control, then FX) does — admit at that rung.
	VerdictDegraded
	// VerdictRefuse: no rung fits; the session must be refused.
	VerdictRefuse
)

// String returns the verdict label.
func (v Verdict) String() string {
	switch v {
	case VerdictAdmit:
		return "admit"
	case VerdictDegraded:
		return "degraded"
	case VerdictRefuse:
		return "refuse"
	default:
		return "unknown"
	}
}

// Decision is one walk down the admission ladder.
type Decision struct {
	Verdict Verdict `json:"verdict"`
	// Full is the full-graph analysis; Admitted the analysis of the
	// configuration actually admitted (== Full on VerdictAdmit, the
	// fitting shed rung on VerdictDegraded, the deepest rung tried on
	// VerdictRefuse).
	Full     *Report `json:"full"`
	Admitted *Report `json:"admitted"`
	// Rung is the pre-shed ladder rung of a degraded admission (0 when
	// nothing is shed; graph.MaxShedRung on a refusal).
	Rung int `json:"rung,omitempty"`
	// Reason is a human-readable summary of the decision.
	Reason string `json:"reason"`
}

// PreShed names the degradation rung ("" when nothing is shed).
func (d *Decision) PreShed() string { return rungLabels[d.Rung] }

// Decide walks the admission ladder for one plan: full graph, then the
// governor's degradation rungs (shed meters+control, then also FX). The
// error is non-nil only for malformed inputs, never for an over-budget
// plan — that is VerdictRefuse.
func Decide(plan *graph.Plan, costsUS []float64, strategy string, threads int, source string, cfg Config) (*Decision, error) {
	full, err := Analyze(plan, costsUS, strategy, threads, source, cfg)
	if err != nil {
		return nil, err
	}
	d := &Decision{Full: full, Admitted: full}
	if full.Fits() {
		d.Verdict = VerdictAdmit
		d.Reason = fmt.Sprintf("bound %.0f µs within envelope %.0f µs", full.BoundUS, full.EnvelopeUS)
		return d, nil
	}
	for rung := 1; rung <= graph.MaxShedRung; rung++ {
		rep, err := Analyze(plan, ShedCosts(plan, costsUS, rung), strategy, threads, source, cfg)
		if err != nil {
			return nil, err
		}
		d.Admitted = rep
		if rep.Fits() {
			d.Verdict = VerdictDegraded
			d.Rung = rung
			d.Reason = fmt.Sprintf("full bound %.0f µs over envelope %.0f µs; fits at %.0f µs after shed %s",
				full.BoundUS, full.EnvelopeUS, rep.BoundUS, rungLabels[rung])
			return d, nil
		}
	}
	d.Verdict = VerdictRefuse
	d.Rung = graph.MaxShedRung
	d.Reason = fmt.Sprintf("bound %.0f µs (%.0f µs fully shed) exceeds envelope %.0f µs",
		full.BoundUS, d.Admitted.BoundUS, full.EnvelopeUS)
	return d, nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
