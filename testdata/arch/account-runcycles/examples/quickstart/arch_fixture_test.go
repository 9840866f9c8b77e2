package main

import "djstar/internal/engine"

// RunCycles(0) as a Metrics constructor, in a test file.
func freshMetrics(e *engine.Engine) *engine.Metrics { return e.RunCycles(0) }
