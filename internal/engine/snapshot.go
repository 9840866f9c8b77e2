package engine

import "djstar/internal/obs"

// SnapshotSchemaVersion identifies the Snapshot wire shape; consumers
// (clients of the /v1 snapshot route) check it instead of sniffing
// fields. Bump on any incompatible change.
//
// v2 added PlanEpoch and LastEdit (live topology editing); v1 consumers
// that ignore unknown fields still parse v2 payloads, but node IDs in
// Nodes/CritPath are only stable within one PlanEpoch, which v1 could
// assume process-stable — hence the bump. See DESIGN.md §14.
//
// v3 added Admission (the schedulability gate's verdict, analytical
// bound and predictive-overload flag; nil when the gate is off). See
// DESIGN.md §15.
//
// v4 added SessionID (the fleet-scoped session label, stable across
// shard migration) and Shard (the hosting shard, "" outside a fleet).
// See DESIGN.md §16.
const SnapshotSchemaVersion = 4

// Snapshot is the engine's unified point-in-time observability view:
// whole-run cycle accounting, health/fault/degradation state, per-node
// timing stats and the measured critical path, in one versioned struct.
// Snapshot allocates and takes the collector mutex — call it from
// UI/telemetry rates, not the audio path.
type Snapshot struct {
	SchemaVersion int `json:"schema_version"`

	// SessionID is the engine's stable session label — under a fleet it
	// survives shard migration, so dashboards keyed on it never see a
	// session change identity. Schema v4.
	SessionID string `json:"session_id"`
	// Shard is the shard currently hosting the session ("" outside a
	// fleet). Schema v4.
	Shard string `json:"shard,omitempty"`

	Strategy string `json:"strategy"`
	Threads  int    `json:"threads"`
	// Cycles is the engine's own cycle count (Engine.Totals, not a
	// caller's run window).
	Cycles uint64 `json:"cycles"`

	// PlanEpoch counts adopted topology swaps (0 = construction plan);
	// node IDs in Nodes/CritPath are stable within one epoch. Schema v2.
	PlanEpoch uint64 `json:"plan_epoch"`
	// LastEdit is the most recent live-edit outcome (nil when no edit
	// has been attempted). Schema v2.
	LastEdit *EditOutcome `json:"last_edit,omitempty"`

	// Component means over the whole run, milliseconds.
	TPMeanMS    float64 `json:"tp_mean_ms"`
	GPMeanMS    float64 `json:"gp_mean_ms"`
	GraphMeanMS float64 `json:"graph_mean_ms"`
	VCMeanMS    float64 `json:"vc_mean_ms"`
	APCMeanMS   float64 `json:"apc_mean_ms"`
	GraphMaxMS  float64 `json:"graph_max_ms"`
	APCMaxMS    float64 `json:"apc_max_ms"`

	// DeadlineMisses counts APCs over the 2.902 ms packet period;
	// MissRate is the fraction of all cycles.
	DeadlineMisses uint64  `json:"deadline_misses"`
	MissRate       float64 `json:"miss_rate"`

	// Health is the fault-tolerance and degradation state.
	Health Health `json:"health"`

	// SLO is the deadline-miss budget status (nil when telemetry is
	// disabled).
	SLO *obs.SLOStatus `json:"slo,omitempty"`

	// Admission is the schedulability gate's status: verdict, analytical
	// response-time bound vs envelope, predictive-overload flag (nil
	// when the gate is disabled). Schema v3.
	Admission *AdmissionState `json:"admission,omitempty"`

	// Nodes are the collector's per-node timing stats (nil when the
	// collector is disabled).
	Nodes []obs.NodeStat `json:"nodes,omitempty"`
	// CritPath is the critical path under the measured node means (nil
	// when the collector is disabled or no cycle has run).
	CritPath *obs.PathStat `json:"crit_path,omitempty"`
}

// Snapshot assembles the unified observability view.
func (e *Engine) Snapshot() Snapshot {
	s := Snapshot{
		SchemaVersion: SnapshotSchemaVersion,
		SessionID:     e.SessionID(),
		Strategy:      e.sch().Name(),
		Threads:       e.sch().Threads(),
		PlanEpoch:     e.planEpoch.Load(),
		Health:        e.Health(),
	}
	s.Shard = e.tel.Shard()
	if le := e.lastEdit.Load(); le != nil {
		cp := *le
		s.LastEdit = &cp
	}
	tot := &e.totals
	s.Cycles = tot.Cycles()
	s.DeadlineMisses = tot.Misses()
	s.MissRate = tot.MissRate()
	s.TPMeanMS = tot.TPMeanMS()
	s.GPMeanMS = tot.GPMeanMS()
	s.GraphMeanMS = tot.GraphMeanMS()
	s.VCMeanMS = tot.VCMeanMS()
	s.APCMeanMS = tot.APCMeanMS()
	s.GraphMaxMS = tot.GraphMaxMS()
	s.APCMaxMS = tot.APCMaxMS()

	if !e.cfg.Telemetry.Disable {
		slo := e.tel.SLO()
		s.SLO = &slo
	}
	s.Admission = e.AdmissionState()
	// Load the topology bundle once: plan and collector are guaranteed
	// mutually consistent inside it, even mid-edit.
	if t := e.topo.Load(); t.col != nil && t.col.Cycles() > 0 {
		s.Nodes = t.col.NodeStats()
		cp := obs.CriticalPath(t.plan, t.col.NodeMeansUS())
		s.CritPath = &cp
	}
	return s
}

// CriticalPath computes the critical path under the collector's measured
// node means. ok is false when the collector is disabled or no cycle has
// been observed yet.
func (e *Engine) CriticalPath() (ps obs.PathStat, ok bool) {
	t := e.topo.Load()
	if t.col == nil || t.col.Cycles() == 0 {
		return obs.PathStat{}, false
	}
	return obs.CriticalPath(t.plan, t.col.NodeMeansUS()), true
}
