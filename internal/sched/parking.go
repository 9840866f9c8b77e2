package sched

import (
	"sync"
	"sync/atomic"
)

// parking is how idle workers sleep, for the work-stealing policy's
// mid-cycle sleepers and the pool's helpers alike: an idle worker
// registers as an idler, re-verifies under the lock and waits; a
// publisher bumps the epoch and broadcasts. Publishers on the cycle path
// go through wakeIfIdle, one atomic load while nobody sleeps.
type parking struct {
	mu     sync.Mutex
	cond   sync.Cond
	epoch  uint64
	idlers atomic.Int32
}

func (k *parking) init() { k.cond.L = &k.mu }

// park sleeps until the epoch moves or done reports true, and reports
// whether it slept. Registering before the re-check closes the race
// against publishers: one either loads idlers >= 1 after publishing (and
// broadcasts), or published before the registration, and work sees it.
// done and work run with mu held.
func (k *parking) park(done, work func() bool) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.idlers.Add(1)
	defer k.idlers.Add(-1)
	epoch := k.epoch
	if done() || work() {
		return false
	}
	for k.epoch == epoch && !done() {
		k.cond.Wait()
	}
	return true
}

// wakeAll bumps the epoch and wakes every parked worker.
func (k *parking) wakeAll() {
	k.mu.Lock()
	k.epoch++
	k.cond.Broadcast()
	k.mu.Unlock()
}

// wakeIfIdle wakes the parked workers, if there are any, and reports
// whether it did.
func (k *parking) wakeIfIdle() bool {
	if k.idlers.Load() == 0 {
		return false
	}
	k.wakeAll()
	return true
}
