package sched

import (
	"sync"
	"sync/atomic"
	"testing"
)

// BenchmarkHotStateContention quantifies the false-sharing fix on the
// scheduler's hot per-node state: four goroutines each hammer their own
// counter, packed (adjacent atomics sharing a cache line — the old
// []atomic.Uint64 done array layout) versus striped (one depCount per
// cache line — the current layout). On multicore hardware the packed
// variant ping-pongs the line between cores on every store; the striped
// variant scales linearly.
func BenchmarkHotStateContention(b *testing.B) {
	const workers = 4
	b.Run("packed", func(b *testing.B) {
		var slots [workers]atomic.Uint64
		runContention(b, workers, func(w, n int) {
			for i := 0; i < n; i++ {
				slots[w].Store(uint64(i))
			}
		})
	})
	b.Run("striped", func(b *testing.B) {
		var slots [workers]depCount
		runContention(b, workers, func(w, n int) {
			for i := 0; i < n; i++ {
				slots[w].v.Store(int32(i))
			}
		})
	})
}

// runContention splits b.N stores across the worker goroutines.
func runContention(b *testing.B, workers int, body func(w, n int)) {
	per := b.N/workers + 1
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			body(w, per)
		}(w)
	}
	wg.Wait()
}
