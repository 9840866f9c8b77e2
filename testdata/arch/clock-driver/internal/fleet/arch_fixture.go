package fleet

import "djstar/internal/engine"

// A session driver of its own, beside Engine.RunRealtime.
func drive(e *engine.Engine, n int) {
	for i := 0; i < n; i++ {
		e.Cycle(&engine.Metrics{})
	}
}
