package graph

import "time"

// This file is the process's one clock (CI-checked; the stall fault's
// busy-wait in internal/faults aside): code that decides on time takes
// the instant as an argument, so tests can hand it synthetic values.

// timeBase anchors the process's one monotonic timeline: engine stage
// stamps, load top-ups, scheduler/observer node windows and the
// telemetry ring's second index are all nanoseconds since it.
var timeBase = time.Now()

// unixBase is timeBase on the wall clock, for UnixNanos and UnixSec.
var unixBase = timeBase.UnixNano()

// nowNanos returns a monotonic nanosecond timestamp. time.Now in Go reads
// the monotonic clock; subtracting two calls is safe against wall-clock
// steps. Kept as a helper so measurement call sites stay terse.
func nowNanos() int64 { return int64(time.Since(timeBase)) }

// NowNanos exposes the monotonic clock (sched delegates to it, so every
// timestamp in the process is on this base).
func NowNanos() int64 { return nowNanos() }

// SleepUntil blocks the calling goroutine until NowNanos reaches ns; an
// instant already past returns at once.
func SleepUntil(ns int64) {
	if d := ns - nowNanos(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// UnixNanos converts a NowNanos stamp to Unix nanoseconds, without
// reading the clock again.
func UnixNanos(ns int64) int64 { return unixBase + ns }

// UnixSec converts a NowNanos stamp to the Unix second it fell in.
func UnixSec(ns int64) int64 { return UnixNanos(ns) / 1e9 }
