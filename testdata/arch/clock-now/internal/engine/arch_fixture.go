package engine

import "time"

// A second clock.
func wallNanos() int64 { return time.Now().UnixNano() }
