package engine

import "time"

// A second background ticker.
func secondTicker() *time.Ticker { return time.NewTicker(time.Second) }
