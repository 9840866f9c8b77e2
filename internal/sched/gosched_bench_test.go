package sched

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// BenchmarkGoschedLocked prices the pool helper's "spin": one
// runtime.Gosched call from a goroutine locked to its OS thread, beside
// the same call from an ordinary goroutine. Unlocked, Gosched with
// nothing else runnable is a trip through the scheduler on the same
// thread (~0.1–0.2 µs). Locked, the goroutine goes onto the global run
// queue, its M hands its P to another M and sleeps on a futex
// (stoplockedm → handoffp → startm), that M finds the goroutine, sees it
// is locked, hands the P back and wakes the first M (startlockedm) —
// two futex hand-offs, 4–14 µs on the 2-core VM depending on how loaded
// it is. Pool.worker (and the ws policy's workers) call it once per
// failed round, so a helper's 256 "failed rounds" before parking last
// milliseconds, not the ~50 µs the loop suggests, and its reaction to a
// newly ready node is up to one hand-off. DESIGN.md §7 has the numbers;
// the policy is deliberately left alone (EXPERIMENTS.md R15).
//
// busy-peer variants keep a second goroutine spinning on the other P,
// which is the helper's real situation: the Execute caller is running.
func BenchmarkGoschedLocked(b *testing.B) {
	for _, bc := range []struct {
		name             string
		locked, busyPeer bool
	}{
		{"unlocked", false, false},
		{"locked", true, false},
		{"unlocked-busy-peer", false, true},
		{"locked-busy-peer", true, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var stop atomic.Bool
			peerDone := make(chan struct{})
			if bc.busyPeer {
				go func() {
					for !stop.Load() {
					}
					close(peerDone)
				}()
			} else {
				close(peerDone)
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				if bc.locked {
					runtime.LockOSThread()
					defer runtime.UnlockOSThread()
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					runtime.Gosched()
				}
				b.StopTimer()
			}()
			<-done
			stop.Store(true)
			<-peerDone
		})
	}
}
