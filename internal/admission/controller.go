// Shared-pool aggregate admission: when several sessions multiplex one
// worker pool, each session's bound must account for the others'
// work competing for the same m workers.
package admission

import (
	"fmt"
	"sort"
	"sync"
)

// Controller tracks the sessions attached to one shared worker pool and
// admits a new one only when every session's aggregate response-time
// bound — its own critical path plus its share of everyone's remaining
// work — still fits the envelope.
//
// For session j on a pool of m workers shared with sessions k≠j, the
// work-conserving bound generalizes Graham's argument: along j's
// critical path, any instant where j is not progressing has all m
// workers busy on surplus work, of which there is at most
// (W_j − CP_j) + Σ_{k≠j} W_k. Hence
//
//	R_j ≤ margin × (Base_j + CP_j + (W_j − CP_j + Σ_{k≠j} W_k)/m)
//
// and admission requires R_j ≤ period for ALL sessions including the
// candidate — an existing session can be the one pushed over budget by
// a newcomer, and that too is a refusal.
type Controller struct {
	mu       sync.Mutex
	cfg      Config
	workers  int
	sessions map[string]*sessionLoad
}

type sessionLoad struct {
	workUS float64
	cpUS   float64
	baseUS float64
}

// SessionBound is one session's aggregate analysis inside the pool.
type SessionBound struct {
	ID      string  `json:"id"`
	BoundUS float64 `json:"bound_us"`
	Fits    bool    `json:"fits"`
}

// NewController builds a controller for a pool exposing `workers`
// effective workers (sched.Pool.Workers()+1: attached clients lend
// their Execute goroutine).
func NewController(workers int, cfg Config) *Controller {
	if workers < 1 {
		workers = 1
	}
	return &Controller{
		cfg:      cfg.withDefaults(),
		workers:  workers,
		sessions: make(map[string]*sessionLoad),
	}
}

// Workers returns the effective parallelism the controller assumes.
func (c *Controller) Workers() int { return c.workers }

// TryAdmit checks whether adding a session with the given per-session
// report keeps every attached session (and the candidate) within the
// envelope, and registers it if so. The returned error wraps
// ErrOverBudget on refusal and names the first session pushed over.
func (c *Controller) TryAdmit(id string, rep *Report) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.sessions[id]; ok {
		return fmt.Errorf("admission: session %q already admitted", id)
	}
	cand := &sessionLoad{workUS: rep.TotalWorkUS, cpUS: rep.CritPathUS, baseUS: rep.BaseUS}
	bounds := c.boundsLocked(id, cand)
	for _, b := range bounds {
		if !b.Fits {
			return fmt.Errorf("admission: pool of %d workers cannot fit session %q (session %q bound %.0f µs > envelope %.0f µs with %d sessions): %w",
				c.workers, id, b.ID, b.BoundUS, c.cfg.PeriodUS, len(bounds), ErrOverBudget)
		}
	}
	c.sessions[id] = cand
	return nil
}

// Release removes a session (removal, migration away, failed
// construction).
func (c *Controller) Release(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.sessions, id)
}

// Probe computes the aggregate bounds with a hypothetical candidate
// mixed in — the fleet's placement query. It returns the minimum
// envelope headroom across every session including the candidate
// (negative when something would leave the envelope) and whether all of
// them still fit. Nothing is registered.
func (c *Controller) Probe(rep *Report) (minHeadroomUS float64, fits bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cand := &sessionLoad{workUS: rep.TotalWorkUS, cpUS: rep.CritPathUS, baseUS: rep.BaseUS}
	minHeadroomUS = c.cfg.PeriodUS
	fits = true
	for _, b := range c.boundsLocked("\x00probe", cand) {
		if h := c.cfg.PeriodUS - b.BoundUS; h < minHeadroomUS {
			minHeadroomUS = h
		}
		if !b.Fits {
			fits = false
		}
	}
	return minHeadroomUS, fits
}

// Headroom returns the minimum envelope headroom across the registered
// sessions (the full envelope when none are registered).
func (c *Controller) Headroom() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.cfg.PeriodUS
	for _, b := range c.boundsLocked("", nil) {
		if v := c.cfg.PeriodUS - b.BoundUS; v < h {
			h = v
		}
	}
	return h
}

// Len returns the number of registered sessions.
func (c *Controller) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.sessions)
}

// Envelope returns the controller's deadline envelope in µs.
func (c *Controller) Envelope() float64 { return c.cfg.PeriodUS }

// Sessions returns the aggregate bound of every registered session,
// sorted by ID.
func (c *Controller) Sessions() []SessionBound {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.boundsLocked("", nil)
}

// boundsLocked computes every session's aggregate bound with an
// optional extra candidate mixed in. Caller holds c.mu.
func (c *Controller) boundsLocked(candID string, cand *sessionLoad) []SessionBound {
	total := 0.0
	for _, s := range c.sessions {
		total += s.workUS
	}
	if cand != nil {
		total += cand.workUS
	}
	m := float64(c.workers)
	bound := func(id string, s *sessionLoad) SessionBound {
		surplus := total - s.cpUS // W_j − CP_j plus all other sessions' work
		if surplus < 0 {
			surplus = 0
		}
		b := c.cfg.Margin * (s.baseUS + s.cpUS + surplus/m)
		return SessionBound{ID: id, BoundUS: b, Fits: b <= c.cfg.PeriodUS}
	}
	out := make([]SessionBound, 0, len(c.sessions)+1)
	for id, s := range c.sessions {
		out = append(out, bound(id, s))
	}
	if cand != nil {
		out = append(out, bound(candID, cand))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
