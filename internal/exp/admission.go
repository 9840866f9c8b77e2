package exp

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"djstar/internal/admission"
	"djstar/internal/engine"
	"djstar/internal/sched"
	"djstar/internal/stats"
)

// Admission runs the deadline-aware admission-control experiment
// (EXPERIMENTS.md R7): a session-count load sweep over one shared
// worker pool, gate off vs gate on, up to one session PAST the pool's
// analytical capacity. With the gate off, every session is attached and
// the overload shows up the only way it can — as blown cycle deadlines.
// With the gate on, the same offered load is held against the
// analytical schedulability bound first: sessions the pool can carry
// are admitted (possibly degraded, meters pre-shed), the excess is
// refused with a typed error, and the admitted sessions keep their
// deadlines. After each gate-on run the bound is recomputed from the
// LIVE measured cost model and printed beside the measured p95/p99 of
// every admitted session — the falsifiability contract: measured p95
// must stay below bound, bound must stay below the envelope.

// The sweep's SLO is two-sided: every session's p95 cycle time must fit
// the period envelope, and its p99 may exceed the envelope only by the
// bounded absolute cost of a stray OS preemption
// (admissionTailTolerance ×). A lone preemption displaces one cycle by
// roughly one scheduler timeslice (~2× the envelope here); sustained
// overload queues whole sessions behind each other and pushes p99 an
// order of magnitude past the envelope — which no single preemption
// can. Raw overruns per 10k are reported for context but not judged.

// admissionMinScale keeps the experiment's cost scale high enough that
// the calibrated spin work the analysis models dominates the fixed DSP
// work it cannot see; far below this the envelope (period × scale)
// shrinks under the un-scaled DSP floor and every row overruns
// trivially, gate or no gate.
const admissionMinScale = 0.35

// admissionTailTolerance is how far past the envelope a session's p99
// may sit before the SLO is judged blown. See the SLO note above: noise
// preemptions land around 2× the envelope, genuine overload around 20×.
const admissionTailTolerance = 4.0

// AdmissionSession is one admitted session's bound-vs-measured pair.
type AdmissionSession struct {
	ID string
	// Verdict is the gate's decision ("admit" or "degraded").
	Verdict string
	// BoundUS is the session's aggregate analytical bound on the shared
	// pool, recomputed from the live measured cost model after the run;
	// MeasuredP95US / MeasuredP99US are what the run actually showed.
	// The bound is falsified whenever measured p95 > bound — p95 for the
	// same reason djanalyze -admit judges it: the bound models the
	// schedule, not OS preemptions, and at a few hundred samples p99 is
	// just the worst couple of preemptions.
	BoundUS       float64
	MeasuredP95US float64
	MeasuredP99US float64
}

// AdmissionRow is one (sessions, gate) cell of the load sweep.
type AdmissionRow struct {
	Sessions int
	// Gate is "off" or "on".
	Gate string
	// Admitted/Degraded/Refused count the gate's verdicts (gate off:
	// everything is admitted).
	Admitted int
	Degraded int
	Refused  int
	// WorstP99US / WorstP95US are the worst per-session p99 and p95
	// cycle times (µs).
	WorstP99US float64
	WorstP95US float64
	// MaxBoundUS is the largest admitted session's live aggregate bound
	// after the run (gate on only).
	MaxBoundUS float64
	// OverrunsPer10k is the rate of cycles exceeding the period envelope
	// (context only; the SLO is judged on p95).
	OverrunsPer10k float64
	// SLOOK is WorstP95US <= the period envelope AND WorstP99US <=
	// admissionTailTolerance × the envelope. p95 alone misses overload
	// that shows up as a few enormous queued cycles; p99 alone is blown
	// by a single OS preemption, which no amount of admission control
	// prevents. The pair separates the two.
	SLOOK bool
	// Admittees are the sessions' individual bound-vs-measured pairs
	// (gate on only).
	Admittees []AdmissionSession
}

// AdmissionResult is the structured outcome of the R7 experiment.
type AdmissionResult struct {
	// PeriodUS is the deadline envelope used (the 2.902 ms packet period
	// at the experiment's cost scale).
	PeriodUS float64
	// Workers is the shared pool's helper worker count.
	Workers int
	// Capacity is the analytical session capacity of the pool: the
	// largest count the static aggregate bound admits. The sweep runs to
	// Capacity+1, so the gate always has something to refuse.
	Capacity int
	Rows     []AdmissionRow
	// KneeSessions is the first session count whose gate-off row blows
	// the SLO — the knee the gate exists to refuse.
	KneeSessions int
	// BoundViolations counts admitted sessions whose measured p95
	// exceeded their live analytical bound (falsifications; should be 0).
	BoundViolations int
}

// Admission runs the R7 load sweep.
func Admission(o Options) (*AdmissionResult, error) {
	o.normalize()
	if o.Scale < admissionMinScale {
		fprintf(o.Out, "(scale raised to %.2f: the analytical envelope scales with node costs and must dominate the fixed DSP work)\n",
			admissionMinScale)
		o.Scale = admissionMinScale
	}
	workers := o.MaxThreads - 1
	if workers < 1 {
		workers = 1
	}
	// The envelope is the paper's 2.902 ms packet period at the
	// experiment's cost scale, so the sweep crosses it at any scale.
	periodUS := admission.DefaultPeriodUS * o.Scale
	acfg := admission.Config{PeriodUS: periodUS}

	rep, err := admissionStaticReport(o, workers, acfg)
	if err != nil {
		return nil, err
	}
	procs := workers + 1
	if p := runtime.GOMAXPROCS(0); procs > p {
		procs = p
	}
	capacity := admissionCapacity(rep, procs, acfg)
	res := &AdmissionResult{PeriodUS: periodUS, Workers: workers, Capacity: capacity}

	fprintf(o.Out, "admission-gated shared pool: %d helper workers (%d effective processors), envelope %.0f µs = packet period × scale %.2f, analytical capacity %d sessions, SLO: p95 within envelope and p99 within %.0fx\n\n",
		workers, procs, periodUS, o.Scale, capacity, admissionTailTolerance)

	var rows [][]string
	for _, k := range admissionSweep(capacity) {
		// Gate OFF: attach everything, let the deadline misses tell the
		// story.
		off, closeOff, err := poolEngines(engine.Config{Graph: o.graphConfig()}, k, workers)
		if err != nil {
			return nil, fmt.Errorf("admission: gate-off %d sessions: %w", k, err)
		}
		p95s, p99s, over := admissionDrive(off, o.Cycles, periodUS)
		closeOff()
		row := AdmissionRow{Sessions: k, Gate: "off", Admitted: k}
		for i := range p99s {
			row.WorstP99US = max(row.WorstP99US, p99s[i])
			row.WorstP95US = max(row.WorstP95US, p95s[i])
		}
		row.OverrunsPer10k = float64(over) / float64(k*o.Cycles) * 1e4
		row.SLOOK = admissionSLOOK(row.WorstP95US, row.WorstP99US, periodUS)
		if !row.SLOOK && res.KneeSessions == 0 {
			res.KneeSessions = k
		}
		res.Rows = append(res.Rows, row)
		rows = append(rows, admissionTableRow(row))

		// Gate ON: the same offered load through the analytical front door.
		onRow, err := admissionGateOn(o, k, workers, acfg, periodUS)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, *onRow)
		rows = append(rows, admissionTableRow(*onRow))
		for _, s := range onRow.Admittees {
			if s.MeasuredP95US > s.BoundUS {
				res.BoundViolations++
			}
		}
	}

	fprintf(o.Out, "%s", stats.RenderTable(
		[]string{"sessions", "gate", "admit", "degr", "refuse",
			"worst p95 µs", "worst p99 µs", "max bound µs", "over/10k", "SLO"}, rows))
	if res.KneeSessions > 0 {
		fprintf(o.Out, "\nknee at %d sessions: gate off blows the SLO there; gate on refuses or degrades the excess instead\n",
			res.KneeSessions)
	} else {
		fprintf(o.Out, "\nno gate-off SLO violation observed (machine has headroom past the analytical capacity)\n")
	}
	fprintf(o.Out, "bound-vs-measured (admitted sessions, gate on, live measured-cost bounds): %d violations of measured p95 <= bound\n",
		res.BoundViolations)
	return res, nil
}

// poolEngines attaches k ungated engines built from cfg to one fresh
// shared pool of the given helper worker count — the hand-driven
// counterpart of a one-shard fleet, for a sweep that must own the cycle
// loop. closeAll closes the engines, then the pool.
func poolEngines(cfg engine.Config, k, workers int) (engines []*engine.Engine, closeAll func(), err error) {
	pool, err := sched.NewPool(workers, k)
	if err != nil {
		return nil, nil, err
	}
	closeAll = func() {
		for _, e := range engines {
			e.Close()
		}
		pool.Close()
	}
	cfg.Pool = pool
	for i := 0; i < k; i++ {
		e, err := engine.New(cfg)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		engines = append(engines, e)
	}
	return engines, closeAll, nil
}

// admissionStaticReport probes the gate's own construction-time
// analysis for one pool-attached session: build a throwaway admitted
// engine with an unbounded envelope and read the report it published.
func admissionStaticReport(o Options, workers int, acfg admission.Config) (*admission.Report, error) {
	pool, err := sched.NewPool(workers, 1)
	if err != nil {
		return nil, err
	}
	defer pool.Close()
	probeCfg := acfg
	probeCfg.PeriodUS = 1e12
	e, err := engine.New(engine.Config{
		Graph: o.graphConfig(),
		Pool:  pool,
		Admission: engine.AdmissionOptions{
			Enabled: true, Config: probeCfg, PredictEvery: -1,
		},
	})
	if err != nil {
		return nil, fmt.Errorf("admission: probe session: %w", err)
	}
	defer e.Close()
	st := e.AdmissionState()
	if st == nil || st.Report == nil {
		return nil, fmt.Errorf("admission: probe session published no report")
	}
	return st.Report, nil
}

// admissionCapacity is the number of identical sessions the aggregate
// bound admits on procs effective processors.
func admissionCapacity(rep *admission.Report, procs int, acfg admission.Config) int {
	ctl := admission.NewController(procs, acfg)
	for k := 1; k <= 1024; k++ {
		if err := ctl.TryAdmit(fmt.Sprintf("cap%d", k), rep); err != nil {
			return k - 1
		}
	}
	return 1024
}

// admissionSweep picks the session counts to measure: the single-session
// baseline, the capacity edge, and one session past it — the row the
// gate must refuse.
func admissionSweep(capacity int) []int {
	ks := []int{1}
	for _, k := range []int{capacity, capacity + 1} {
		if k > ks[len(ks)-1] {
			ks = append(ks, k)
		}
	}
	return ks
}

// admissionDrive runs every engine concurrently for cycles cycles
// (after a warmup) and returns each session's p95 and p99 cycle times
// (µs) and the total count of cycles over periodUS.
func admissionDrive(engines []*engine.Engine, cycles int, periodUS float64) ([]float64, []float64, int64) {
	p95s := make([]float64, len(engines))
	p99s := make([]float64, len(engines))
	overruns := make([]int64, len(engines))
	var wg sync.WaitGroup
	for i, e := range engines {
		wg.Add(1)
		go func(i int, e *engine.Engine) {
			defer wg.Done()
			e.WarmUp(cycles)
			durs := make([]float64, 0, cycles)
			for c := 0; c < cycles; c++ {
				t0 := time.Now()
				e.Cycle(nil)
				us := float64(time.Since(t0).Nanoseconds()) / 1e3
				durs = append(durs, us)
				if us > periodUS {
					overruns[i]++
				}
			}
			pcts := stats.Percentiles(durs, 0.95, 0.99)
			p95s[i], p99s[i] = pcts[0], pcts[1]
		}(i, e)
	}
	wg.Wait()
	var total int64
	for _, o := range overruns {
		total += o
	}
	return p95s, p99s, total
}

// admissionGateOn offers k sessions to an admission-gated pool one at a
// time, runs whatever was admitted, refreshes each session's bound from
// its live measured cost model, and reports verdicts plus each admitted
// session's bound beside its measured p99.
func admissionGateOn(o Options, k, workers int, acfg admission.Config, periodUS float64) (*AdmissionRow, error) {
	pool, err := sched.NewPool(workers, k)
	if err != nil {
		return nil, err
	}
	defer pool.Close()
	procs := workers + 1
	if p := runtime.GOMAXPROCS(0); procs > p {
		procs = p
	}
	ctl := admission.NewController(procs, acfg)

	row := &AdmissionRow{Sessions: k, Gate: "on"}
	var engines []*engine.Engine
	defer func() {
		for _, e := range engines {
			e.Close()
		}
	}()
	for i := 0; i < k; i++ {
		cfg := engine.Config{
			Graph: o.graphConfig(),
			Pool:  pool,
			Admission: engine.AdmissionOptions{
				Enabled:      true,
				Config:       acfg,
				Controller:   ctl,
				PredictEvery: -1, // bounds refreshed explicitly after the run
			},
		}
		cfg.Telemetry.Session = fmt.Sprintf("s%d", i)
		e, err := engine.New(cfg)
		switch {
		case err == nil:
			engines = append(engines, e)
			if st := e.AdmissionState(); st != nil && st.Verdict == "degraded" {
				row.Degraded++
			} else {
				row.Admitted++
			}
		case errors.Is(err, admission.ErrOverBudget):
			row.Refused++
		default:
			return nil, fmt.Errorf("admission: gate-on session %d: %w", i, err)
		}
	}

	if len(engines) > 0 {
		p95s, p99s, over := admissionDrive(engines, o.Cycles, periodUS)
		// Recompute every session's bound from the costs the run just
		// measured — the strongest falsification the formula can face —
		// then read the aggregate bounds back from the controller.
		for _, e := range engines {
			e.RefreshAdmission()
		}
		bounds := map[string]float64{}
		for _, sb := range ctl.Sessions() {
			bounds[sb.ID] = sb.BoundUS
			if sb.BoundUS > row.MaxBoundUS {
				row.MaxBoundUS = sb.BoundUS
			}
		}
		for i, e := range engines {
			if p99s[i] > row.WorstP99US {
				row.WorstP99US = p99s[i]
			}
			if p95s[i] > row.WorstP95US {
				row.WorstP95US = p95s[i]
			}
			st := e.AdmissionState()
			id := fmt.Sprintf("s%d", i)
			row.Admittees = append(row.Admittees, AdmissionSession{
				ID:            id,
				Verdict:       st.Verdict,
				BoundUS:       bounds[id],
				MeasuredP95US: p95s[i],
				MeasuredP99US: p99s[i],
			})
		}
		row.OverrunsPer10k = float64(over) / float64(len(engines)*o.Cycles) * 1e4
	}
	row.SLOOK = admissionSLOOK(row.WorstP95US, row.WorstP99US, periodUS)
	return row, nil
}

// admissionSLOOK applies the two-sided SLO: the bulk of cycles (p95)
// fits the envelope and the tail (p99) stays within the stray-preemption
// tolerance of it.
func admissionSLOOK(p95, p99, periodUS float64) bool {
	return p95 <= periodUS && p99 <= admissionTailTolerance*periodUS
}

func admissionTableRow(r AdmissionRow) []string {
	slo := "ok"
	if !r.SLOOK {
		slo = "BLOWN"
	}
	bound := "-"
	if r.MaxBoundUS > 0 {
		bound = fmt.Sprintf("%.0f", r.MaxBoundUS)
	}
	return []string{
		fmt.Sprintf("%d", r.Sessions),
		r.Gate,
		fmt.Sprintf("%d", r.Admitted),
		fmt.Sprintf("%d", r.Degraded),
		fmt.Sprintf("%d", r.Refused),
		fmt.Sprintf("%.0f", r.WorstP95US),
		fmt.Sprintf("%.0f", r.WorstP99US),
		bound,
		fmt.Sprintf("%.1f", r.OverrunsPer10k),
		slo,
	}
}
