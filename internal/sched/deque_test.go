package sched

import (
	"sync"
	"sync/atomic"
	"testing"
)

// both deque implementations under test.
func dequeImpls(capacity int) map[string]dequeIface {
	return map[string]dequeIface{
		"chase-lev": NewDeque(capacity),
		"locked":    NewLockedDeque(capacity),
	}
}

func TestDequeLIFOOwner(t *testing.T) {
	for name, d := range dequeImpls(8) {
		for i := int32(1); i <= 4; i++ {
			d.PushBottom(i)
		}
		for want := int32(4); want >= 1; want-- {
			got, ok := d.PopBottom()
			if !ok || got != want {
				t.Fatalf("%s: PopBottom = %v,%v want %v", name, got, ok, want)
			}
		}
		if _, ok := d.PopBottom(); ok {
			t.Fatalf("%s: pop from empty succeeded", name)
		}
		if !d.Empty() {
			t.Fatalf("%s: not empty after drain", name)
		}
	}
}

func TestDequeFIFOSteal(t *testing.T) {
	for name, d := range dequeImpls(8) {
		for i := int32(1); i <= 4; i++ {
			d.PushBottom(i)
		}
		for want := int32(1); want <= 4; want++ {
			got, ok := d.Steal()
			if !ok || got != want {
				t.Fatalf("%s: Steal = %v,%v want %v", name, got, ok, want)
			}
		}
		if _, ok := d.Steal(); ok {
			t.Fatalf("%s: steal from empty succeeded", name)
		}
	}
}

func TestDequeMixedEnds(t *testing.T) {
	for name, d := range dequeImpls(8) {
		d.PushBottom(1)
		d.PushBottom(2)
		d.PushBottom(3)
		if got, _ := d.Steal(); got != 1 {
			t.Fatalf("%s: steal got %d, want 1", name, got)
		}
		if got, _ := d.PopBottom(); got != 3 {
			t.Fatalf("%s: pop got %d, want 3", name, got)
		}
		if got, _ := d.PopBottom(); got != 2 {
			t.Fatalf("%s: pop got %d, want 2", name, got)
		}
	}
}

func TestDequeCapacityRoundsUp(t *testing.T) {
	if c := len(NewDeque(67).buf); c != 128 {
		t.Fatalf("Cap = %d, want 128", c)
	}
	if c := len(NewDeque(0).buf); c != 1 {
		t.Fatalf("Cap(0) = %d, want 1", c)
	}
}

func TestDequeOverflowPanics(t *testing.T) {
	for name, d := range dequeImpls(2) {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: overflow did not panic", name)
				}
			}()
			for i := int32(0); i < 10; i++ {
				d.PushBottom(i)
			}
		}()
	}
}

func TestDequeWrapAround(t *testing.T) {
	// Exercise index wrapping far past the capacity.
	for name, d := range dequeImpls(4) {
		for round := int32(0); round < 100; round++ {
			d.PushBottom(round)
			d.PushBottom(round + 1000)
			if got, _ := d.Steal(); got != round {
				t.Fatalf("%s round %d: steal %d", name, round, got)
			}
			if got, _ := d.PopBottom(); got != round+1000 {
				t.Fatalf("%s round %d: pop %d", name, round, got)
			}
		}
	}
}

// TestDequeConcurrentConsistency runs an owner pushing/popping against
// several thieves and checks that every pushed element is consumed exactly
// once.
func TestDequeConcurrentConsistency(t *testing.T) {
	for name, d := range dequeImpls(1 << 12) {
		const total = 1 << 12
		const thieves = 4

		consumed := make([]atomic.Int32, total)
		take := func(x int32) {
			if consumed[x].Add(1) != 1 {
				t.Errorf("%s: element %d consumed twice", name, x)
			}
		}

		var wg sync.WaitGroup
		stop := atomic.Bool{}
		for i := 0; i < thieves; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					if x, ok := d.Steal(); ok {
						take(x)
					}
				}
				// Final drain.
				for {
					x, ok := d.Steal()
					if !ok {
						return
					}
					take(x)
				}
			}()
		}

		// Owner: push everything, popping a few now and then.
		for i := int32(0); i < total; i++ {
			d.PushBottom(i)
			if i%3 == 0 {
				if x, ok := d.PopBottom(); ok {
					take(x)
				}
			}
		}
		for {
			x, ok := d.PopBottom()
			if !ok {
				break
			}
			take(x)
		}
		stop.Store(true)
		wg.Wait()

		for i := range consumed {
			if consumed[i].Load() != 1 {
				t.Fatalf("%s: element %d consumed %d times", name, i, consumed[i].Load())
			}
		}
	}
}
