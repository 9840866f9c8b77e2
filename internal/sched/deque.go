package sched

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// dequeIface abstracts the two work-queue implementations so the
// work-stealing scheduler can run with either (the locked variant exists
// for the overhead ablation in the evaluation harness).
type dequeIface interface {
	// PushBottom adds a node at the owner's end. Owner-only.
	PushBottom(x int32)
	// PopBottom removes the most recently pushed node (LIFO). Owner-only.
	PopBottom() (int32, bool)
	// Steal removes the oldest node (FIFO) on behalf of a thief. Any
	// thread.
	Steal() (int32, bool)
	// Empty reports whether the deque currently appears empty.
	Empty() bool
}

// Deque is a fixed-capacity Chase–Lev work-stealing deque. The owner
// pushes and pops at the bottom without locks; thieves CAS the top. The
// paper's convention (§V-C): "stealing threads access the queue from the
// top and local executor threads access their queue from the bottom",
// allowing a theft and a local access to proceed concurrently whenever
// the deque holds at least two nodes.
type Deque struct {
	top    atomic.Int64
	bottom atomic.Int64
	mask   int64
	buf    []atomic.Int32
}

// NewDeque returns a deque holding up to capacity elements (rounded up to
// a power of two). The task-graph use never exceeds the node count.
func NewDeque(capacity int) *Deque {
	if capacity < 1 {
		capacity = 1
	}
	size := 1
	for size < capacity {
		size <<= 1
	}
	return &Deque{mask: int64(size - 1), buf: make([]atomic.Int32, size)}
}

// Len returns the approximate number of queued elements.
func (d *Deque) Len() int {
	n := d.bottom.Load() - d.top.Load()
	if n < 0 {
		return 0
	}
	return int(n)
}

// Empty implements dequeIface.
func (d *Deque) Empty() bool { return d.Len() == 0 }

// PushBottom implements dequeIface. It panics when the deque is full,
// which for graph execution indicates a scheduler bug (a node enqueued
// more than once per cycle).
func (d *Deque) PushBottom(x int32) {
	b := d.bottom.Load()
	t := d.top.Load()
	if b-t >= int64(len(d.buf)) {
		panic(fmt.Sprintf("sched: deque overflow (cap %d)", len(d.buf)))
	}
	d.buf[b&d.mask].Store(x)
	d.bottom.Store(b + 1)
}

// PopBottom implements dequeIface.
func (d *Deque) PopBottom() (int32, bool) {
	b := d.bottom.Load() - 1
	d.bottom.Store(b)
	t := d.top.Load()
	if t > b {
		// Empty: restore.
		d.bottom.Store(t)
		return 0, false
	}
	x := d.buf[b&d.mask].Load()
	if t == b {
		// Single element: race against thieves for it.
		won := d.top.CompareAndSwap(t, t+1)
		d.bottom.Store(t + 1)
		if !won {
			return 0, false
		}
		return x, true
	}
	return x, true
}

// Steal implements dequeIface.
func (d *Deque) Steal() (int32, bool) {
	for {
		t := d.top.Load()
		b := d.bottom.Load()
		if t >= b {
			return 0, false
		}
		x := d.buf[t&d.mask].Load()
		if d.top.CompareAndSwap(t, t+1) {
			return x, true
		}
		// Lost a race with the owner or another thief; retry.
	}
}

// LockedDeque is a mutex-protected double-ended queue with the same
// access pattern (bottom LIFO for the owner, top FIFO for thieves). It is
// the baseline for the lock-free-ness ablation: same policy, heavier
// synchronization.
type LockedDeque struct {
	mu   sync.Mutex
	buf  []int32
	head int // top index (steal side)
	tail int // bottom index (owner side), exclusive
	mask int
}

// NewLockedDeque returns a locked deque with at least the given capacity.
func NewLockedDeque(capacity int) *LockedDeque {
	if capacity < 1 {
		capacity = 1
	}
	size := 1
	for size < capacity {
		size <<= 1
	}
	return &LockedDeque{buf: make([]int32, size), mask: size - 1}
}

// PushBottom implements dequeIface.
func (d *LockedDeque) PushBottom(x int32) {
	d.mu.Lock()
	if d.tail-d.head >= len(d.buf) {
		d.mu.Unlock()
		panic(fmt.Sprintf("sched: locked deque overflow (cap %d)", len(d.buf)))
	}
	d.buf[d.tail&d.mask] = x
	d.tail++
	d.mu.Unlock()
}

// PopBottom implements dequeIface.
func (d *LockedDeque) PopBottom() (int32, bool) {
	d.mu.Lock()
	if d.tail == d.head {
		d.mu.Unlock()
		return 0, false
	}
	d.tail--
	x := d.buf[d.tail&d.mask]
	d.mu.Unlock()
	return x, true
}

// Steal implements dequeIface.
func (d *LockedDeque) Steal() (int32, bool) {
	d.mu.Lock()
	if d.tail == d.head {
		d.mu.Unlock()
		return 0, false
	}
	x := d.buf[d.head&d.mask]
	d.head++
	d.mu.Unlock()
	return x, true
}

// Empty implements dequeIface.
func (d *LockedDeque) Empty() bool {
	d.mu.Lock()
	e := d.tail == d.head
	d.mu.Unlock()
	return e
}
