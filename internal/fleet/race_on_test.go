//go:build race

package fleet

// raceEnabled reports that this binary was built with the race detector,
// whose instrumentation changes what a request allocates.
const raceEnabled = true
