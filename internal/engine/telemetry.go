package engine

import (
	"djstar/internal/obs"
	"djstar/internal/sched"
	"djstar/internal/telemetry"
)

// Engine ↔ telemetry wiring: the engine owns a telemetry.Collector
// (histograms, SLO budget, per-second ring) and a telemetry.Recorder
// (flight recorder). Fault, governor and stall events flow through the
// wrapper methods below so they are counted and retained before any
// user hook runs; Cycle feeds RecordCycle from its cycle record and
// triggers the recorder when the rolling miss window blows its budget.

// Telemetry exposes the telemetry collector (nil when disabled via
// TelemetryOptions.Disable).
func (e *Engine) Telemetry() *telemetry.Collector { return e.tel }

// FlightRecorder exposes the incident flight recorder (nil when
// telemetry is disabled).
func (e *Engine) FlightRecorder() *telemetry.Recorder { return e.flight }

// onFault is the scheduler's fault handler: count + retain, trigger the
// recorder on quarantine, then forward to the user hook. Runs on the
// worker that recovered the panic.
func (e *Engine) onFault(r sched.FaultRecord) {
	if e.tel != nil {
		e.tel.RecordFault(r.Quarantined)
		if r.Quarantined {
			e.flight.AddEvent(r.Cycle, "quarantine", r.Name)
			e.flight.Trigger(r.Cycle, telemetry.TriggerQuarantine)
		} else {
			e.flight.AddEvent(r.Cycle, "fault", r.Name)
		}
	}
	if e.cfg.Hooks.OnFault != nil {
		e.cfg.Hooks.OnFault(r)
	}
}

// onGovChange is the governor's transition handler (cycle thread).
func (e *Engine) onGovChange(from, to GovLevel) {
	if e.tel != nil {
		e.tel.RecordGovTransition(int32(to))
		e.flight.AddEvent(e.cycleN.Load(), "governor", from.String()+"->"+to.String())
	}
	if e.cfg.Hooks.OnGovChange != nil {
		e.cfg.Hooks.OnGovChange(from, to)
	}
}

// onStall is the watchdog's handler (watchdog goroutine).
func (e *Engine) onStall(r StallRecord) {
	if e.tel != nil {
		e.tel.RecordStall()
		e.flight.AddEvent(r.Cycle, "stall", r.Name)
		e.flight.Trigger(r.Cycle, telemetry.TriggerStall)
	}
	if e.cfg.Hooks.OnStall != nil {
		e.cfg.Hooks.OnStall(r)
	}
}

// fillIncident stamps the engine's side of an incident bundle: identity,
// graph structure, the observed node means, the live critical path and
// the collector's sampled schedule realizations — everything the offline
// analyzer needs to replay the analysis without this process. Runs on
// the dump goroutine.
func (e *Engine) fillIncident(inc *telemetry.Incident) {
	// One topology load: the dump goroutine gets a plan and collector
	// from the same epoch even if an edit lands mid-dump, so the traces'
	// node IDs index the bundled graph.
	t := e.topo.Load()
	inc.Threads = e.sch().Threads()
	inc.Graph = telemetry.GraphInfo{
		Names: t.plan.Names,
		Order: t.plan.Order,
		Preds: t.plan.PredLists(),
	}
	if t.col == nil {
		return
	}
	inc.Traces = t.col.Traces()
	means := t.col.NodeMeansUS()
	inc.NodeMeansUS = means
	hasData := false
	for _, m := range means {
		if m > 0 {
			hasData = true
			break
		}
	}
	if hasData {
		ps := obs.CriticalPath(t.plan, means)
		inc.CritPath = &ps
	}
}
