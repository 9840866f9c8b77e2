package engine

import (
	"djstar/internal/graph"
)

// SessionSpec describes one session to construct over a base Config —
// the per-session knobs that the fleet composes with its shard-level
// defaults: the base Config carries what all sessions share (graph
// shape, telemetry/obs tuning, governor policy), the spec carries what
// distinguishes one session, and Resolve merges the two without mutating
// either.
type SessionSpec struct {
	// ID labels the session's snapshot and metric series (the
	// OpenMetrics "session" label and the /v1 resource ID). Fleet-scoped
	// IDs stay stable across shard migration. Empty = the container
	// assigns a monotonic ID.
	ID string
	// Hooks are per-session event hooks; non-nil fields override the
	// base config's.
	Hooks Hooks
	// Graph, when non-nil, replaces the base graph config wholesale
	// (decks, FX chains, scale).
	Graph *graph.Config
}

// Resolve merges the spec over a base Config, returning the effective
// per-session Config. The base is taken by value and never mutated, so
// one base can safely fan out to many sessions.
func (sp SessionSpec) Resolve(base Config) Config {
	c := base
	if sp.Graph != nil {
		c.Graph = *sp.Graph
	}
	if sp.ID != "" {
		c.Telemetry.Session = sp.ID
	}
	c.Hooks = mergeHooks(base.Hooks, sp.Hooks)
	return c
}

// mergeHooks overlays per-session hooks on container defaults: each
// non-nil override wins its field.
func mergeHooks(base, over Hooks) Hooks {
	h := base
	if over.OnFault != nil {
		h.OnFault = over.OnFault
	}
	if over.OnGovChange != nil {
		h.OnGovChange = over.OnGovChange
	}
	if over.OnStall != nil {
		h.OnStall = over.OnStall
	}
	if over.OnCycle != nil {
		h.OnCycle = over.OnCycle
	}
	return h
}
