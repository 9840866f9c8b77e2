package fleet

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"djstar/internal/admission"
	"djstar/internal/engine"
)

// Session is one fleet-hosted engine plus the goroutine that drives its
// cycle loop. The driver is the ONLY caller of Engine.Cycle, which
// keeps per-session cycle serialization and gives migrations a clean
// point between cycles: control closures (Rebind during a drain) run on
// the driver goroutine itself, so by construction no cycle is in
// flight when the executor is swapped.
type Session struct {
	id  string
	eng *engine.Engine

	// rep is the admission load registered with the hosting shard's
	// controller; migrations re-register the same report elsewhere.
	rep *admission.Report
	// headroom is Float64bits of the placement headroom — the driver
	// updates it on migration while HTTP readers poll.
	headroom atomic.Uint64

	shard atomic.Int32

	ctl      chan func()
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// ID returns the fleet-scoped session ID (stable across migration).
func (s *Session) ID() string { return s.id }

// Engine exposes the session's engine.
func (s *Session) Engine() *engine.Engine { return s.eng }

// Shard returns the ID of the shard currently hosting the session.
func (s *Session) Shard() int { return int(s.shard.Load()) }

// BoundUS and HeadroomUS echo the admission decision that placed the
// session (HeadroomUS refreshes on migration).
func (s *Session) BoundUS() float64 { return s.rep.BoundUS }
func (s *Session) HeadroomUS() float64 {
	return math.Float64frombits(s.headroom.Load())
}

func (s *Session) setHeadroom(h float64) { s.headroom.Store(math.Float64bits(h)) }

// run drives the engine through Engine.RunRealtime, paced to period
// (≤ 0 runs unpaced), until stopped. Between cycles it runs the pending
// control closures and honours stop.
func (s *Session) run(period time.Duration) {
	defer close(s.done)
	s.eng.RunRealtime(math.MaxInt, period, func(int, int) bool {
		for {
			select {
			case <-s.stop:
				return false
			case fn := <-s.ctl:
				fn()
			default:
				return true
			}
		}
	})
}

// do runs fn on the driver goroutine between cycles and returns its
// error — the migration entry point. Returns ErrSessionClosed when the
// driver has stopped.
func (s *Session) do(fn func() error) error {
	errc := make(chan error, 1)
	wrapped := func() { errc <- fn() }
	select {
	case s.ctl <- wrapped:
	case <-s.done:
		return ErrSessionClosed
	}
	select {
	case err := <-errc:
		return err
	case <-s.done:
		return ErrSessionClosed
	}
}

// close stops the driver and the engine. Idempotent.
func (s *Session) close() {
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
	s.eng.Close()
}
