//go:build race

package synth

// raceEnabled reports that this binary was built with the race detector,
// whose instrumentation slows a render about tenfold.
const raceEnabled = true
