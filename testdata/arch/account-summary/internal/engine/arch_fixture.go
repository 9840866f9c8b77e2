package engine

import "djstar/internal/stats"

// A Welford summary beside engine.Metrics.
var cycleSummary = stats.NewSummary()
