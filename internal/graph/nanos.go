package graph

import "time"

// timeBase anchors the process's one monotonic timeline: engine stage
// stamps, load top-ups, scheduler/observer node windows and the
// telemetry ring's second index are all nanoseconds since it.
var timeBase = time.Now()

// unixBase is timeBase on the wall clock, for UnixSec.
var unixBase = timeBase.UnixNano()

// nowNanos returns a monotonic nanosecond timestamp. time.Now in Go reads
// the monotonic clock; subtracting two calls is safe against wall-clock
// steps. Kept as a helper so measurement call sites stay terse.
func nowNanos() int64 { return int64(time.Since(timeBase)) }

// NowNanos exposes the monotonic clock (sched delegates to it, so every
// timestamp in the process is on this base).
func NowNanos() int64 { return nowNanos() }

// UnixSec converts a NowNanos stamp to the Unix second it fell in,
// without reading the clock again.
func UnixSec(ns int64) int64 { return (unixBase + ns) / 1e9 }
