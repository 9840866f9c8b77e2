package engine

import (
	"djstar/internal/obs"
	"djstar/internal/sched"
)

// Engine ↔ telemetry wiring: the engine owns one obs.Sink (histograms,
// SLO budget, per-second ring, flight recorder). Fault, governor and
// stall events flow through the wrapper methods below so they are
// counted and retained before any user hook runs; Cycle feeds
// RecordCycle from its cycle record. The sink is nil when telemetry is
// disabled and every call on it is then a no-op, so no call is guarded.

// Telemetry exposes the telemetry sink (nil when disabled via
// TelemetryOptions.Disable).
func (e *Engine) Telemetry() *obs.Sink { return e.tel }

// onFault is the scheduler's fault handler: report to the sink (a
// quarantine also fires the flight recorder), then forward to the user
// hook. Runs on the worker that recovered the panic.
func (e *Engine) onFault(r sched.FaultRecord) {
	kind := obs.Fault
	if r.Quarantined {
		kind = obs.Quarantine
	}
	e.tel.Event(kind, r.Cycle, r.Name)
	if e.cfg.Hooks.OnFault != nil {
		e.cfg.Hooks.OnFault(r)
	}
}

// onGovChange is the governor's transition handler (cycle thread).
func (e *Engine) onGovChange(from, to GovLevel) {
	e.tel.Event(obs.GovTransition, e.cycleN.Load(), from.String()+"->"+to.String())
	if e.cfg.Hooks.OnGovChange != nil {
		e.cfg.Hooks.OnGovChange(from, to)
	}
}

// onStall is the watchdog's handler (watchdog goroutine).
func (e *Engine) onStall(r StallRecord) {
	e.tel.Event(obs.Stall, r.Cycle, r.Name)
	if e.cfg.Hooks.OnStall != nil {
		e.cfg.Hooks.OnStall(r)
	}
}

// fillIncident stamps the engine's side of an incident bundle: identity,
// graph structure, the observed node means, the live critical path and
// the collector's sampled schedule realizations — everything the offline
// analyzer needs to replay the analysis without this process. Runs on
// the dump goroutine.
func (e *Engine) fillIncident(inc *obs.Incident) {
	// One topology load: the dump goroutine gets a plan and collector
	// from the same epoch even if an edit lands mid-dump, so the traces'
	// node IDs index the bundled graph.
	t := e.topo.Load()
	inc.Threads = e.sch().Threads()
	inc.Graph = obs.GraphInfo{
		Names: t.plan.Names,
		Order: t.plan.Order,
		Preds: t.plan.PredLists(),
	}
	if t.col == nil {
		return
	}
	inc.Traces = t.col.Traces()
	// One read of the means, so the bundled path replays exactly; the
	// cycle count is read first, so a seen cycle is in the means.
	seen := t.col.Cycles() > 0
	inc.NodeMeansUS = t.col.NodeMeansUS()
	if seen {
		ps := obs.CriticalPath(t.plan, inc.NodeMeansUS)
		inc.CritPath = &ps
	}
}
