package telemetry

import (
	"math"
	"sync"
	"sync/atomic"
)

// Config labels and tunes a Collector.
type Config struct {
	// Strategy and Session label every exposed metric series — the
	// scheduling strategy name and, under a shared worker pool, which
	// session the series belongs to (default "0").
	Strategy string
	Session  string
	// Shard labels the series with the shard currently hosting the
	// session (fleet mode). Empty omits the label entirely, keeping
	// single-engine expositions unchanged. Migration updates it at run
	// time via SetShard.
	Shard string
	// SLO sets the deadline-miss budget (zero value = 5 per 10,000).
	SLO SLOConfig
}

func (c Config) withDefaults() Config {
	if c.Strategy == "" {
		c.Strategy = "unknown"
	}
	if c.Session == "" {
		c.Session = "0"
	}
	return c
}

// Collector is one engine's telemetry: latency histograms, the rolling
// per-second ring, the SLO budget window, and the fault/governor/stall
// counters. RecordCycle is the audio-path entry point and is
// allocation-free; everything else is snapshot-path. The mutex guards
// the ring and the SLO window and is taken once per cycle; the
// histograms and counters are atomic and lock-free.
type Collector struct {
	cfg Config

	// shard is the live shard label (see Config.Shard); atomic because
	// migration rewrites it while scrapes read it.
	shard atomic.Pointer[string]

	// APC and Graph are the cycle-latency histograms (whole APC and the
	// graph component).
	APC   Histogram
	Graph Histogram

	cycles      atomic.Uint64
	misses      atomic.Uint64
	faults      atomic.Uint64
	quarantines atomic.Uint64
	stalls      atomic.Uint64
	govChanges  atomic.Uint64
	incidents   atomic.Uint64
	govLevel    atomic.Int32
	busDrops    atomic.Int64

	// Admission-control series (all off-path: the gate and the
	// predictive monitor write them, never the cycle thread).
	admBoundUS    atomic.Uint64 // float64 bits: latest analytical bound
	admHeadroomUS atomic.Uint64 // float64 bits: envelope − bound
	admDegrades   atomic.Uint64 // sessions admitted pre-degraded
	admRefusedEd  atomic.Uint64 // edits rejected as unschedulable
	admPredicted  atomic.Uint64 // predictive overload excursions

	mu   sync.Mutex
	ring ring
	slo  *sloWindow
}

// NewCollector builds a collector for the given labels and SLO budget.
func NewCollector(cfg Config) *Collector {
	cfg = cfg.withDefaults()
	c := &Collector{cfg: cfg, slo: newSLOWindow(cfg.SLO)}
	c.shard.Store(&cfg.Shard)
	return c
}

// Strategy returns the collector's strategy label.
func (c *Collector) Strategy() string { return c.cfg.Strategy }

// Session returns the collector's session label.
func (c *Collector) Session() string { return c.cfg.Session }

// Shard returns the live shard label ("" = not in a fleet).
func (c *Collector) Shard() string { return *c.shard.Load() }

// SetShard rewrites the shard label — called once per migration, never
// on the audio path.
func (c *Collector) SetShard(s string) { c.shard.Store(&s) }

// RecordCycle records one completed APC: histogram samples, the
// per-second ring slot, and the SLO window. unixSec is the second the
// cycle completed in (the engine derives it from the cycle's end stamp,
// graph.UnixSec). It returns true exactly when this
// cycle's miss pushes the rolling window past its budget — the caller's
// cue to trigger the flight recorder. Allocation-free; single writer
// (the cycle thread).
func (c *Collector) RecordCycle(unixSec int64, apcNS, graphNS int64, miss bool, govLevel int32) (budgetCrossed bool) {
	c.APC.RecordNS(apcNS)
	c.Graph.RecordNS(graphNS)
	c.cycles.Add(1)
	if miss {
		c.misses.Add(1)
	}
	c.govLevel.Store(govLevel)

	c.mu.Lock()
	s := c.ring.slotFor(unixSec)
	s.Cycles++
	s.APCSumNS += apcNS
	if miss {
		s.Misses++
	}
	if govLevel > s.GovLevel {
		s.GovLevel = govLevel
	}
	s.BusDrops = c.busDrops.Load()
	budgetCrossed = c.slo.add(miss)
	c.mu.Unlock()
	return budgetCrossed
}

// RecordFault counts one contained node panic (worker thread; cheap).
func (c *Collector) RecordFault(quarantined bool) {
	c.faults.Add(1)
	if quarantined {
		c.quarantines.Add(1)
	}
	c.mu.Lock()
	if s := c.ring.current(); s != nil {
		s.Faults++
		if quarantined {
			s.Quarantines++
		}
	}
	c.mu.Unlock()
}

// RecordStall counts one watchdog detection (watchdog goroutine).
func (c *Collector) RecordStall() {
	c.stalls.Add(1)
	c.mu.Lock()
	if s := c.ring.current(); s != nil {
		s.Stalls++
	}
	c.mu.Unlock()
}

// RecordGovTransition counts one governor level change (cycle thread).
func (c *Collector) RecordGovTransition(to int32) {
	c.govChanges.Add(1)
	c.govLevel.Store(to)
}

// RecordIncident counts one flight-recorder trigger.
func (c *Collector) RecordIncident() { c.incidents.Add(1) }

// SetBusDrops publishes the middleware bus's cumulative drop count
// (off-path gauge; the app facade updates it at health-report rate).
func (c *Collector) SetBusDrops(n int64) { c.busDrops.Store(n) }

// SetAdmissionBound publishes the latest analytical response-time bound
// and its headroom against the envelope, in µs (admission gate and
// predictive monitor; off-path gauges).
func (c *Collector) SetAdmissionBound(boundUS, headroomUS float64) {
	c.admBoundUS.Store(math.Float64bits(boundUS))
	c.admHeadroomUS.Store(math.Float64bits(headroomUS))
}

// AdmissionBound returns the published (bound, headroom) gauge pair in
// µs (0, 0 until the gate has analyzed anything).
func (c *Collector) AdmissionBound() (boundUS, headroomUS float64) {
	return math.Float64frombits(c.admBoundUS.Load()), math.Float64frombits(c.admHeadroomUS.Load())
}

// RecordAdmissionDegrade counts one session admitted pre-degraded.
func (c *Collector) RecordAdmissionDegrade() { c.admDegrades.Add(1) }

// RecordRefusedEdit counts one edit rejected as unschedulable.
func (c *Collector) RecordRefusedEdit() { c.admRefusedEd.Add(1) }

// RecordPredictedOverload counts one predictive overload excursion (the
// recomputed bound crossing the envelope before misses occur).
func (c *Collector) RecordPredictedOverload() { c.admPredicted.Add(1) }

// SLO returns the budget tracker's current status.
func (c *Collector) SLO() SLOStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.slo.status(c.cycles.Load(), c.misses.Load(), &c.ring)
}

// Series returns the most recent n seconds of the rolling ring, oldest
// first (n ≤ RingSeconds).
func (c *Collector) Series(n int) []RingSlot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.lastN(n)
}

// Totals is the counter snapshot used by the exposition writer and the
// incident bundle.
type Totals struct {
	Cycles         uint64 `json:"cycles"`
	DeadlineMisses uint64 `json:"deadline_misses"`
	Faults         uint64 `json:"faults"`
	Quarantines    uint64 `json:"quarantines"`
	Stalls         uint64 `json:"stalls"`
	GovTransitions uint64 `json:"gov_transitions"`
	Incidents      uint64 `json:"incidents"`
	GovLevel       int32  `json:"gov_level"`
	BusDrops       int64  `json:"bus_drops"`

	// Admission-control counters and gauges (0 when the gate is off).
	AdmissionDegrades  uint64  `json:"admission_degrades"`
	RefusedEdits       uint64  `json:"refused_edits"`
	PredictedOverloads uint64  `json:"predicted_overloads"`
	AdmissionBoundUS   float64 `json:"admission_bound_us"`
	AdmissionHeadroom  float64 `json:"admission_headroom_us"`
}

// Totals returns the counter snapshot.
func (c *Collector) Totals() Totals {
	return Totals{
		Cycles:         c.cycles.Load(),
		DeadlineMisses: c.misses.Load(),
		Faults:         c.faults.Load(),
		Quarantines:    c.quarantines.Load(),
		Stalls:         c.stalls.Load(),
		GovTransitions: c.govChanges.Load(),
		Incidents:      c.incidents.Load(),
		GovLevel:       c.govLevel.Load(),
		BusDrops:       c.busDrops.Load(),

		AdmissionDegrades:  c.admDegrades.Load(),
		RefusedEdits:       c.admRefusedEd.Load(),
		PredictedOverloads: c.admPredicted.Load(),
		AdmissionBoundUS:   math.Float64frombits(c.admBoundUS.Load()),
		AdmissionHeadroom:  math.Float64frombits(c.admHeadroomUS.Load()),
	}
}

// Rates1m summarizes the last minute of the ring: cycle rate in Hz and
// miss rate as a fraction (snapshot path).
func (c *Collector) Rates1m() (cycleHz, missRate float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cycles, misses := c.ring.windowSums(60)
	n := c.ring.valid
	if n > 60 {
		n = 60
	}
	if n > 0 {
		cycleHz = float64(cycles) / float64(n)
	}
	if cycles > 0 {
		missRate = float64(misses) / float64(cycles)
	}
	return cycleHz, missRate
}
