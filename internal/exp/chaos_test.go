package exp

import (
	"io"
	"testing"

	"djstar/internal/engine"
)

// TestChaos asserts the containment invariants of the scripted-fault run:
// every injected panic is recovered (never escapes), the panicking node is
// quarantined and later restored by a probe, the audible cost is bounded
// by one silent packet per fault, the stall watchdog names the wedged
// node, and — above all — every cycle completes.
func TestChaos(t *testing.T) {
	o := Quick(io.Discard)
	res, err := Chaos(o)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := int(res.Metrics.Cycles()), o.Cycles; got != want {
		t.Errorf("cycles completed = %d, want %d", got, want)
	}
	fs := res.Health.Faults
	if res.Injected.Panics == 0 {
		t.Fatal("no panics injected — script did not arm")
	}
	if fs.Recovered != int64(res.Injected.Panics) {
		t.Errorf("recovered = %d, want %d (every injected panic, no more)",
			fs.Recovered, res.Injected.Panics)
	}
	if !res.Quarantined {
		t.Error("panicking node was never quarantined")
	}
	if !res.Restored {
		t.Error("quarantine was never lifted by a probe")
	}
	if bound := int(fs.Recovered) + 1; res.SilentPackets > bound {
		t.Errorf("silenced packets = %d, want <= %d (one per recovered fault)",
			res.SilentPackets, bound)
	}
	if res.FaultRMS >= res.CleanRMS {
		t.Errorf("faulted-packet RMS %.5f not attenuated vs clean %.5f",
			res.FaultRMS, res.CleanRMS)
	}
	if res.Injected.Stalls == 0 {
		t.Fatal("no stall injected — script did not arm")
	}
	if !res.StallDetected {
		t.Error("watchdog did not detect the injected stall")
	} else if res.StallNode != chaosStallNode {
		t.Errorf("watchdog blamed %q, want %q", res.StallNode, chaosStallNode)
	}
	if res.Health.Level != engine.GovNormal {
		t.Errorf("final level = %v, want normal (no governor in this run)", res.Health.Level)
	}
	if len(res.Health.Quarantined) != 0 {
		t.Errorf("nodes still quarantined at end: %v", res.Health.Quarantined)
	}
}
