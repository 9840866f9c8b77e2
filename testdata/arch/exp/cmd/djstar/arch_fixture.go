package main

import "djstar/internal/exp"

// A command calibrating through the experiment harness.
var _ = exp.Options{}
