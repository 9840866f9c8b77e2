// Package apiv1 defines the wire types of the versioned /v1 HTTP/JSON
// control plane, shared by the single-engine debug server (djstar
// -http) and the fleet control plane (djserve). Sessions are resources
// addressable by their stable ID; admission verdicts travel in the
// create response; shards expose per-shard SLO rollups.
//
// Versioning policy (DESIGN.md §16): additive changes (new fields, new
// endpoints) stay within /v1; a field removal or meaning change mints
// /v2 alongside /v1 for one deprecation cycle.
package apiv1

import (
	"djstar/internal/admission"
	"djstar/internal/obs"
)

// Version is the API version prefix.
const Version = "v1"

// Error is the uniform error body.
type Error struct {
	Error string `json:"error"`
}

// Session summarizes one session resource (GET /v1/sessions/{id}; the
// full Snapshot lives under /v1/sessions/{id}/snapshot).
type Session struct {
	ID       string `json:"id"`
	Shard    int    `json:"shard"` // -1 outside a fleet
	Strategy string `json:"strategy"`
	Threads  int    `json:"threads"`

	Cycles    uint64  `json:"cycles"`
	PlanEpoch uint64  `json:"plan_epoch"`
	APCMeanMS float64 `json:"apc_mean_ms"`
	MissRate  float64 `json:"miss_rate"`
	GovLevel  string  `json:"gov_level"`

	// SLO is the session's deadline-miss budget status (nil when
	// telemetry is disabled).
	SLO *obs.SLOStatus `json:"slo,omitempty"`

	// Verdict/BoundUS/HeadroomUS echo the admission decision that let
	// the session in ("" when no gate was involved).
	Verdict    string  `json:"verdict,omitempty"`
	BoundUS    float64 `json:"bound_us,omitempty"`
	HeadroomUS float64 `json:"headroom_us,omitempty"`
}

// SessionList is GET /v1/sessions.
type SessionList struct {
	Sessions []Session `json:"sessions"`
}

// CreateSessionRequest is POST /v1/sessions (fleet only — the
// single-engine server's session set is fixed at boot).
type CreateSessionRequest struct {
	// ID requests a specific session ID (must be unused); empty lets the
	// fleet assign one.
	ID string `json:"id,omitempty"`
	// Scale overrides the fleet's default node-cost scale for this
	// session (0 = fleet default).
	Scale float64 `json:"scale,omitempty"`
	// Fuse enables cost-guided chain fusion for this session.
	Fuse bool `json:"fuse,omitempty"`
	// AdmissionMargin overrides the placement safety margin (0 = fleet
	// default).
	AdmissionMargin float64 `json:"admission_margin,omitempty"`
}

// CreateSessionResponse carries the admitted session and the placement
// decision that justified its shard.
type CreateSessionResponse struct {
	Session   Session   `json:"session"`
	Placement Placement `json:"placement"`
}

// Placement records where a session landed and why: the shard chosen by
// analytical headroom, the post-admission minimum headroom of that
// shard, and every candidate considered.
type Placement struct {
	Shard int `json:"shard"`
	// HeadroomUS is the chosen shard's minimum aggregate headroom with
	// the session placed — the number that justified the choice.
	HeadroomUS float64 `json:"headroom_us"`
	// BoundUS is the session's own analytical bound.
	BoundUS float64 `json:"bound_us"`
	// Reason is "create" or "drain".
	Reason string `json:"reason,omitempty"`
	// Candidates are the per-shard probe results at decision time.
	Candidates []ShardHeadroom `json:"candidates,omitempty"`
}

// ShardHeadroom is one shard's probe result during placement.
type ShardHeadroom struct {
	Shard int `json:"shard"`
	// HeadroomUS is the shard's minimum aggregate headroom if the
	// candidate session were placed there.
	HeadroomUS float64 `json:"headroom_us"`
	Fits       bool    `json:"fits"`
	Sessions   int     `json:"sessions"`
}

// EditRequest is POST /v1/sessions/{id}/edits: one patch in the live
// topology patch language (see graph.ParsePatch).
type EditRequest struct {
	Patch string `json:"patch"`
}

// EditResponse reports the staging outcome; adoption happens at the
// session's next cycle boundary (watch plan_epoch in the snapshot).
type EditResponse struct {
	OK     bool   `json:"ok"`
	Staged bool   `json:"staged"`
	Epoch  uint64 `json:"epoch"`
	Error  string `json:"error,omitempty"`
}

// RetuneRequest is POST /v1/sessions/{id}/retune: live parameter
// changes that need no topology edit.
type RetuneRequest struct {
	// LoadFactor scales every node cost (1.0 = nominal; overload
	// experiments inflate it). Nil leaves it unchanged.
	LoadFactor *float64 `json:"load_factor,omitempty"`
	// TurntableSpeed sets virtual turntable speeds by deck index
	// (scratching / pitch bends over the control plane). An index with no
	// deck rejects the whole request (422) before anything is applied.
	TurntableSpeed map[int]float64 `json:"turntable_speed,omitempty"`
}

// RetuneResponse echoes the applied values.
type RetuneResponse struct {
	OK         bool    `json:"ok"`
	LoadFactor float64 `json:"load_factor"`
}

// Shard is one shard resource (GET /v1/shards/{id}), including the SLO
// rollup over its current sessions.
type Shard struct {
	ID       int   `json:"id"`
	CPUs     []int `json:"cpus,omitempty"`
	Workers  int   `json:"workers"`
	Pinned   bool  `json:"pinned"`
	Draining bool  `json:"draining"`
	Sessions int   `json:"sessions"`

	// HeadroomUS is the minimum aggregate headroom across the shard's
	// sessions (the full envelope when empty); Bounds lists each
	// session's aggregate bound.
	HeadroomUS float64                  `json:"headroom_us"`
	EnvelopeUS float64                  `json:"envelope_us"`
	Bounds     []admission.SessionBound `json:"bounds,omitempty"`

	SLO ShardSLO `json:"slo"`
}

// ShardSLO is the per-shard deadline-miss rollup.
type ShardSLO struct {
	Cycles       uint64  `json:"cycles"`
	Misses       uint64  `json:"misses"`
	MissPer10k   float64 `json:"miss_per_10k"`
	TargetPer10k float64 `json:"target_per_10k"`
	// Healthy is MissPer10k ≤ TargetPer10k over the whole run.
	Healthy bool `json:"healthy"`
	// WorstBurn1m is the worst 1-minute SLO burn rate across sessions.
	WorstBurn1m float64 `json:"worst_burn_1m"`
}

// ShardList is GET /v1/shards.
type ShardList struct {
	Shards []Shard `json:"shards"`
}

// DrainResponse is POST /v1/shards/{id}/drain: how many sessions moved
// off the shard and any per-session failures.
type DrainResponse struct {
	Shard  int      `json:"shard"`
	Moved  int      `json:"moved"`
	Failed int      `json:"failed"`
	Errors []string `json:"errors,omitempty"`
}
