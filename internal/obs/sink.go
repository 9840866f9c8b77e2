package obs

import (
	"fmt"
	"sync"
	"time"
)

// SinkConfig labels and tunes a Sink.
type SinkConfig struct {
	// Strategy and Session label every exposed metric series — the
	// scheduling strategy name (default "unknown") and, under a shared
	// worker pool, which session the series belongs to (default "0").
	Strategy string
	Session  string
	// Shard labels the series with the shard currently hosting the
	// session (fleet mode). Empty omits the label entirely, keeping
	// single-engine expositions unchanged. Migration updates it at run
	// time via SetShard.
	Shard string
	// SLO sets the deadline-miss budget (zero value = 5 per 10,000).
	SLO SLOConfig
	// IncidentDir receives incident bundles; empty disables dumping
	// (dumping events are still counted and retained).
	IncidentDir string
	// OnIncident, when set, is notified after a bundle is written
	// (called on the dump goroutine).
	OnIncident func(path string, inc *Incident)
	// Fill lets the owner stamp its side of a bundle (graph structure,
	// node means, critical path, traces, thread count) at dump time;
	// called on the dump goroutine.
	Fill func(*Incident)
}

// Kind names an event reported through Sink.Event.
type Kind uint8

// Event kinds. Quarantine is a fault that also quarantined its node (it
// subsumes the Fault report); AdmittedDegraded and EditRefused are the
// counted variants of Admitted and EditRejected.
const (
	Fault Kind = iota
	Quarantine
	Stall
	GovTransition
	Admitted
	AdmittedDegraded
	PredictedOverload
	EditRejected
	EditRefused
	EditRollback
	PlanSwap
)

// ReasonBudget is the incident reason of the one trigger the sink raises
// itself: RecordCycle seeing the rolling miss window cross its budget.
// Every other reason is the String of a dumping Kind.
const ReasonBudget = "deadline-budget"

// kinds is the one description of every event kind: the name it is
// retained under (and bundled under, when it dumps), what it counts —
// the Totals counters behind /metrics and the bundle, and the
// per-second ring fields — and whether it fires the flight recorder.
var kinds = [...]struct {
	name  string
	count func(*Totals, *RingSlot)
	dump  bool
}{
	Fault: {name: "fault", count: func(t *Totals, s *RingSlot) { t.Faults++; s.Faults++ }},
	Quarantine: {name: "quarantine", dump: true, count: func(t *Totals, s *RingSlot) {
		t.Faults++
		t.Quarantines++
		s.Faults++
		s.Quarantines++
	}},
	Stall:             {name: "stall", dump: true, count: func(t *Totals, s *RingSlot) { t.Stalls++; s.Stalls++ }},
	GovTransition:     {name: "governor", count: func(t *Totals, _ *RingSlot) { t.GovTransitions++ }},
	Admitted:          {name: "admission"},
	AdmittedDegraded:  {name: "admission", count: func(t *Totals, _ *RingSlot) { t.AdmissionDegrades++ }},
	PredictedOverload: {name: "admission-predict", count: func(t *Totals, _ *RingSlot) { t.PredictedOverloads++ }},
	EditRejected:      {name: "edit-rejected"},
	EditRefused:       {name: "edit-rejected", count: func(t *Totals, _ *RingSlot) { t.RefusedEdits++ }},
	EditRollback:      {name: "edit-rollback"},
	PlanSwap:          {name: "plan-swap"},
}

// String returns the name the kind's events are retained under.
func (k Kind) String() string { return kinds[k].name }

// Totals is the sink's counter state: the read-out behind the /metrics
// counter families and the incident bundle.
type Totals struct {
	Cycles         uint64 `json:"cycles"`
	DeadlineMisses uint64 `json:"deadline_misses"`
	Faults         uint64 `json:"faults"`
	Quarantines    uint64 `json:"quarantines"`
	Stalls         uint64 `json:"stalls"`
	GovTransitions uint64 `json:"gov_transitions"`
	Incidents      uint64 `json:"incidents"`
	GovLevel       int32  `json:"gov_level"`

	// Admission-control counters and gauges (0 when the gate is off).
	AdmissionDegrades  uint64  `json:"admission_degrades"`
	RefusedEdits       uint64  `json:"refused_edits"`
	PredictedOverloads uint64  `json:"predicted_overloads"`
	AdmissionBoundUS   float64 `json:"admission_bound_us"`
	AdmissionHeadroom  float64 `json:"admission_headroom_us"`
}

// Event is one retained occurrence in the sink's event ring.
type Event struct {
	// Cycle is the engine cycle the event belongs to.
	Cycle uint64 `json:"cycle"`
	// Kind is a Kind's name or, for a flight-recorder trigger, the
	// incident reason.
	Kind string `json:"kind"`
	// Detail names the node / transition involved ("" on a trigger).
	Detail string `json:"detail"`
}

const (
	// eventRing is the retained-event depth.
	eventRing = 64
	// dumpCooldownSec is the minimum spacing between dumps, so an
	// incident storm produces one bundle, not thousands.
	dumpCooldownSec = 10
	// bundleSeriesSec bounds the per-second series in a bundle.
	bundleSeriesSec = 120
)

// Sink is one engine's lifetime telemetry: cycle-latency histograms,
// counters, the rolling per-second ring, the SLO budget window, and the
// flight recorder — a ring of recent events that, when something goes
// wrong, is dumped with the rest as one self-contained incident bundle
// (see Incident). One mutex owns everything but the histograms, which
// are atomic; the cycle thread takes it once per cycle. RecordCycle and
// Event are allocation-free apart from starting a dump. A nil *Sink is
// the disabled sink: every method is a no-op returning zero values.
type Sink struct {
	cfg SinkConfig

	// APC and Graph are the cycle-latency histograms (whole APC and the
	// graph component).
	APC   Histogram
	Graph Histogram

	mu      sync.Mutex
	shard   string // live shard label (see SinkConfig.Shard)
	tot     Totals
	ring    ring
	slo     *sloWindow
	events  [eventRing]Event
	evPos   int
	evLen   int
	lastDmp int64 // unix seconds of the last dump
	dumpSeq uint64

	pending sync.WaitGroup
}

// NewSink builds a sink for the given labels, SLO budget and incident
// directory.
func NewSink(cfg SinkConfig) *Sink {
	if cfg.Strategy == "" {
		cfg.Strategy = "unknown"
	}
	if cfg.Session == "" {
		cfg.Session = "0"
	}
	return &Sink{cfg: cfg, shard: cfg.Shard, slo: newSLOWindow(cfg.SLO)}
}

// locked runs f with the mutex held; on the nil sink it runs nothing.
// The off-path accessors below are built on it.
func (s *Sink) locked(f func()) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	f()
}

// Shard returns the live shard label ("" = not in a fleet).
func (s *Sink) Shard() (shard string) {
	s.locked(func() { shard = s.shard })
	return shard
}

// SetShard rewrites the shard label — called once per migration, never
// on the audio path.
func (s *Sink) SetShard(shard string) { s.locked(func() { s.shard = shard }) }

// RecordCycle records one completed APC: histogram samples, counters,
// the per-second ring slot and the SLO window. unixSec is the second
// the cycle completed in (the engine derives it from the cycle's end
// stamp, graph.UnixSec). When this cycle's miss pushes the rolling
// window past its budget the flight recorder fires with ReasonBudget.
// Single writer (the cycle thread).
func (s *Sink) RecordCycle(cycle uint64, unixSec, apcNS, graphNS int64, miss bool, govLevel int32) {
	if s == nil {
		return
	}
	s.APC.RecordNS(apcNS)
	s.Graph.RecordNS(graphNS)

	s.mu.Lock()
	slot := s.ring.slotFor(unixSec)
	s.tot.Cycles++
	slot.Cycles++
	slot.APCSumNS += apcNS
	if miss {
		s.tot.DeadlineMisses++
		slot.Misses++
	}
	s.tot.GovLevel = govLevel
	if govLevel > slot.GovLevel {
		slot.GovLevel = govLevel
	}
	if s.slo.add(miss) {
		s.trigger(cycle, ReasonBudget)
	}
	s.mu.Unlock()
}

// Event reports one occurrence of kind at the given engine cycle: it is
// retained in the event ring with detail (the node, transition or
// decision involved), counted as the kind table says, and — for a
// dumping kind — fires the flight recorder. Any thread.
func (s *Sink) Event(kind Kind, cycle uint64, detail string) {
	if s == nil {
		return
	}
	k := &kinds[kind]
	s.mu.Lock()
	s.retain(cycle, k.name, detail)
	if k.count != nil {
		slot := s.ring.current()
		if slot == nil {
			slot = new(RingSlot) // before the first cycle there is no second to count into
		}
		k.count(&s.tot, slot)
	}
	if k.dump {
		s.trigger(cycle, k.name)
	}
	s.mu.Unlock()
}

// retain stores one event, evicting the oldest (mutex held).
func (s *Sink) retain(cycle uint64, kind, detail string) {
	s.events[s.evPos] = Event{Cycle: cycle, Kind: kind, Detail: detail}
	s.evPos = (s.evPos + 1) % eventRing
	if s.evLen < eventRing {
		s.evLen++
	}
}

// trigger fires the flight recorder (mutex held): the trigger is
// retained as an event and counted, and — when an incident directory is
// configured and the cooldown has passed — a bundle is assembled and
// written on a fresh goroutine, off the audio path.
func (s *Sink) trigger(cycle uint64, reason string) {
	s.retain(cycle, reason, "")
	s.tot.Incidents++
	if s.cfg.IncidentDir == "" {
		return
	}
	now := time.Now().Unix()
	if now-s.lastDmp < dumpCooldownSec {
		return
	}
	s.lastDmp = now
	s.dumpSeq++
	seq := s.dumpSeq
	s.pending.Add(1)
	go func() {
		defer s.pending.Done()
		s.dump(cycle, reason, seq)
	}()
}

// Flush waits for in-flight dumps to finish (shutdown and tests).
func (s *Sink) Flush() {
	if s != nil {
		s.pending.Wait()
	}
}

// SetAdmissionBound publishes the latest analytical response-time bound
// and its headroom against the envelope, in µs (admission gate and
// predictive monitor; off-path gauges).
func (s *Sink) SetAdmissionBound(boundUS, headroomUS float64) {
	s.locked(func() { s.tot.AdmissionBoundUS, s.tot.AdmissionHeadroom = boundUS, headroomUS })
}

// SLO returns the budget tracker's current status.
func (s *Sink) SLO() (st SLOStatus) {
	s.locked(func() { st = s.slo.status(s.tot.Cycles, s.tot.DeadlineMisses, &s.ring) })
	return st
}

// Totals returns the counter snapshot.
func (s *Sink) Totals() (tot Totals) {
	s.locked(func() { tot = s.tot })
	return tot
}

// scrape is one sink's consistent read-out for an exposition or a
// bundle, taken under a single lock.
type scrape struct {
	labels string
	tot    Totals
	slo    SLOStatus
	// cycleHz and missRate summarize the last minute of the ring.
	cycleHz, missRate float64
	apc, graph        *Histogram
	series            []RingSlot
	events            []Event
}

// scrape reads the sink out; seriesSec > 0 also copies that many seconds
// of the ring and the retained events, oldest first.
func (s *Sink) scrape(seriesSec int) scrape {
	s.mu.Lock()
	defer s.mu.Unlock()
	sc := scrape{
		labels: fmt.Sprintf("strategy=%q,session=%q", s.cfg.Strategy, s.cfg.Session),
		tot:    s.tot,
		slo:    s.slo.status(s.tot.Cycles, s.tot.DeadlineMisses, &s.ring),
		apc:    &s.APC,
		graph:  &s.Graph,
	}
	// The shard label only appears in fleet mode, so single-engine
	// expositions carry exactly the two labels above.
	if s.shard != "" {
		sc.labels += fmt.Sprintf(",shard=%q", s.shard)
	}
	cycles, misses := s.ring.windowSums(60)
	if n := min(s.ring.valid, 60); n > 0 {
		sc.cycleHz = float64(cycles) / float64(n)
	}
	if cycles > 0 {
		sc.missRate = float64(misses) / float64(cycles)
	}
	if seriesSec > 0 {
		sc.series = s.ring.lastN(seriesSec)
		sc.events = make([]Event, 0, s.evLen)
		for i := 0; i < s.evLen; i++ {
			sc.events = append(sc.events, s.events[(s.evPos-s.evLen+i+eventRing)%eventRing])
		}
	}
	return sc
}
