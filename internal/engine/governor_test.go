package engine

import (
	"testing"

	"djstar/internal/graph"
	"djstar/internal/sched"
)

// govKinds is a four-node plan with one node of each sheddable kind plus
// one audio node the governor must never touch.
var govKinds = []graph.NodeKind{graph.KindAudio, graph.KindMeter, graph.KindControl, graph.KindFX}

// govHarness drives the governor state machine directly against a real
// fault state (a sequential scheduler over the four-node plan, never
// executed) and records every transition and load-factor application.
type govHarness struct {
	g           *governor
	fs          *sched.FaultState
	factors     []float64
	transitions []string
}

func newGovHarness(t *testing.T, cfg GovernorConfig) *govHarness {
	t.Helper()
	g := graph.New()
	for _, k := range govKinds {
		g.Node(g.AddNode(k.String(), graph.SectionMaster, func() {})).Kind = k
	}
	plan, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.New(sched.NameSequential, plan, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	h := &govHarness{fs: s.FaultState()}
	h.g = newGovernor(cfg, h.fs, func(f float64) {
		h.factors = append(h.factors, f)
	})
	h.g.onChange = func(from, to GovLevel) {
		h.transitions = append(h.transitions, from.String()+"->"+to.String())
	}
	return h
}

// shed lists the shed bit of each of the four nodes.
func (h *govHarness) shed() (out [4]bool) {
	for i := range out {
		out[i] = h.fs.Shed(int32(i))
	}
	return out
}

// window feeds exactly one evaluation window: misses cycles over the
// deadline, the rest clean, all with a graph time far under budget.
func (h *govHarness) window(misses int) {
	w := h.g.cfg.Window
	for i := 0; i < w; i++ {
		apc := 1.0
		if i < misses {
			apc = 10.0 // past any deadline
		}
		h.g.observe(apc, 0.1)
	}
}

// govTestConfig: window of 8 cycles, escalate when the window miss rate
// exceeds 20 % (i.e. 2+ misses of 8), recover after 3 clean windows.
func govTestConfig() GovernorConfig {
	return GovernorConfig{
		Enabled:          true,
		DeadlineMS:       2.0,
		GraphBudgetMS:    100, // keep the p99 trigger out of these tests
		Window:           8,
		EscalateMissRate: 0.20,
		CleanWindows:     3,
		CriticalFactor:   0.5,
	}
}

func TestGovernorEscalateExactBoundary(t *testing.T) {
	h := newGovHarness(t, govTestConfig())

	// One window one cycle short of completion: no decision yet, however
	// bad the cycles were.
	for i := 0; i < 7; i++ {
		h.g.observe(10.0, 0.1)
	}
	if got := h.g.Level(); got != GovNormal {
		t.Fatalf("level before window completes = %v, want normal", got)
	}
	// The 8th cycle completes the window: rate 1.0 > 0.20 escalates.
	h.g.observe(10.0, 0.1)
	if got := h.g.Level(); got != GovDegraded1 {
		t.Fatalf("level after first bad window = %v, want degraded1", got)
	}
	// Degraded1 sheds meter and control, keeps FX and DSP.
	if got := h.shed(); got != [4]bool{false, true, true, false} {
		t.Fatalf("degraded1 must shed exactly meter+control, shed = %v", got)
	}

	// A window at exactly the threshold rate must NOT escalate: the
	// trigger is rate > EscalateMissRate, and 20 % of 8 is 1.6, so 1 miss
	// (12.5 %) holds while 2 misses (25 %) escalates.
	h.window(1)
	if got := h.g.Level(); got != GovDegraded1 {
		t.Fatalf("level after under-threshold window = %v, want degraded1", got)
	}
	h.window(2)
	if got := h.g.Level(); got != GovDegraded2 {
		t.Fatalf("level after over-threshold window = %v, want degraded2", got)
	}
	// Degraded2 additionally sheds FX.
	if got := h.shed(); got != [4]bool{false, true, true, true} {
		t.Fatalf("degraded2 must additionally shed fx, shed = %v", got)
	}
}

func TestGovernorCriticalHalvesLoadFactor(t *testing.T) {
	h := newGovHarness(t, govTestConfig())

	// Three bad windows walk normal -> degraded1 -> degraded2 -> critical.
	h.window(8)
	h.window(8)
	h.window(8)
	if got := h.g.Level(); got != GovCritical {
		t.Fatalf("level after 3 bad windows = %v, want critical", got)
	}
	// The critical rung applies the configured load-factor multiplier;
	// the two rungs before it applied 1.0.
	if len(h.factors) != 3 || h.factors[2] != 0.5 {
		t.Fatalf("factors = %v, want [1 1 0.5]", h.factors)
	}

	// Critical is the floor: more bad windows hold, no further transition.
	h.window(8)
	if got := h.g.Level(); got != GovCritical {
		t.Fatalf("level after 4th bad window = %v, want critical (floor)", got)
	}
	if len(h.transitions) != 3 {
		t.Fatalf("transitions = %v, want exactly 3", h.transitions)
	}
}

func TestGovernorDeEscalateExactBoundary(t *testing.T) {
	h := newGovHarness(t, govTestConfig())
	h.window(8) // normal -> degraded1

	// CleanWindows-1 clean windows are not enough.
	h.window(0)
	h.window(0)
	if got := h.g.Level(); got != GovDegraded1 {
		t.Fatalf("level after 2 clean windows = %v, want degraded1", got)
	}
	// The 3rd consecutive clean window recovers one level.
	h.window(0)
	if got := h.g.Level(); got != GovNormal {
		t.Fatalf("level after 3 clean windows = %v, want normal", got)
	}
	// Recovery un-sheds everything.
	if got := h.shed(); got != [4]bool{} {
		t.Fatalf("nodes still shed after recovery: %v", got)
	}
}

func TestGovernorRecoveryFromCriticalRestoresFactor(t *testing.T) {
	h := newGovHarness(t, govTestConfig())
	h.window(8)
	h.window(8)
	h.window(8) // critical, factor 0.5

	// Leaving critical must restore the full load factor immediately,
	// even though the level is still degraded2.
	h.window(0)
	h.window(0)
	h.window(0)
	if got := h.g.Level(); got != GovDegraded2 {
		t.Fatalf("level after recovery step = %v, want degraded2", got)
	}
	if last := h.factors[len(h.factors)-1]; last != 1.0 {
		t.Fatalf("factor after leaving critical = %v, want 1.0", last)
	}

	// Full recovery walks one level per CleanWindows streak.
	for i := 0; i < 2*3; i++ {
		h.window(0)
	}
	if got := h.g.Level(); got != GovNormal {
		t.Fatalf("level after full recovery = %v, want normal", got)
	}
	want := []string{
		"normal->degraded1", "degraded1->degraded2", "degraded2->critical",
		"critical->degraded2", "degraded2->degraded1", "degraded1->normal",
	}
	if len(h.transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", h.transitions, want)
	}
	for i := range want {
		if h.transitions[i] != want[i] {
			t.Fatalf("transition %d = %q, want %q", i, h.transitions[i], want[i])
		}
	}
}

func TestGovernorPartialMissWindowResetsCleanStreak(t *testing.T) {
	h := newGovHarness(t, govTestConfig())
	h.window(8) // -> degraded1

	// Two clean windows, then a window with one miss (under the
	// escalation threshold): holds the level but restarts the streak.
	h.window(0)
	h.window(0)
	h.window(1)
	if got := h.g.Level(); got != GovDegraded1 {
		t.Fatalf("level after partial-miss window = %v, want degraded1", got)
	}
	// Two more clean windows: still short of a fresh streak of 3.
	h.window(0)
	h.window(0)
	if got := h.g.Level(); got != GovDegraded1 {
		t.Fatalf("level after broken streak = %v, want degraded1 (hysteresis)", got)
	}
	h.window(0)
	if got := h.g.Level(); got != GovNormal {
		t.Fatalf("level after fresh 3-window streak = %v, want normal", got)
	}
}

func TestGovernorRecoverMissRateToleratesNoise(t *testing.T) {
	cfg := govTestConfig()
	cfg.EscalateMissRate = 0.30 // 3+ misses of 8 escalate
	cfg.RecoverMissRate = 0.125 // 1 miss of 8 still counts as clean
	h := newGovHarness(t, cfg)
	h.window(8) // -> degraded1

	// Windows dirtied by a single miss (rate 0.125 <= tolerance) count
	// toward the recovery streak exactly like miss-free ones.
	h.window(1)
	h.window(0)
	h.window(1)
	if got := h.g.Level(); got != GovNormal {
		t.Fatalf("level after 3 within-tolerance windows = %v, want normal", got)
	}

	// Above the tolerance but under the escalation threshold: the level
	// holds and the streak restarts, as before.
	h.window(8) // -> degraded1
	h.window(1)
	h.window(1)
	h.window(2) // rate 0.25: hold + reset
	h.window(1)
	h.window(1)
	if got := h.g.Level(); got != GovDegraded1 {
		t.Fatalf("level after broken streak = %v, want degraded1 (hysteresis)", got)
	}
	h.window(1)
	if got := h.g.Level(); got != GovNormal {
		t.Fatalf("level after fresh streak = %v, want normal", got)
	}
}

func TestGovernorGraphBudgetP99Escalates(t *testing.T) {
	cfg := govTestConfig()
	cfg.GraphBudgetMS = 2.1
	h := newGovHarness(t, cfg)

	// No deadline misses, but every graph time over budget: the p99
	// trigger escalates on its own.
	for i := 0; i < cfg.Window; i++ {
		h.g.observe(1.0, 5.0)
	}
	if got := h.g.Level(); got != GovDegraded1 {
		t.Fatalf("level after over-budget graph window = %v, want degraded1", got)
	}
}

// TestGovernorPredictiveRung: the admission monitor's over-budget signal
// escalates exactly one level at the next window boundary even though
// the miss record is clean, is consumed by that escalation, is counted,
// and recovers through the ordinary CleanWindows hysteresis.
func TestGovernorPredictiveRung(t *testing.T) {
	h := newGovHarness(t, govTestConfig())

	h.g.predicted.Store(true)
	// Mid-window the signal is only latched.
	for i := 0; i < 7; i++ {
		h.g.observe(1.0, 0.1)
	}
	if got := h.g.Level(); got != GovNormal {
		t.Fatalf("level before the window boundary = %v, want normal", got)
	}
	h.g.observe(1.0, 0.1)
	if got := h.g.Level(); got != GovDegraded1 {
		t.Fatalf("level after a clean window with the signal armed = %v, want degraded1", got)
	}
	if got := h.shed(); got != [4]bool{false, true, true, false} {
		t.Fatalf("predictive escalation must shed like any other, shed = %v", got)
	}
	if h.g.predicted.Load() {
		t.Fatal("signal not consumed at the window boundary")
	}
	if e, p := h.g.escalates.Load(), h.g.predictEscalates.Load(); e != 1 || p != 1 {
		t.Fatalf("escalates/predictEscalates = %d/%d, want 1/1", e, p)
	}

	// One signal, one level: the next clean windows hold, then recover.
	// The escalating window reset the streak, so recovery takes a full
	// CleanWindows run from here.
	h.window(0)
	h.window(0)
	if got := h.g.Level(); got != GovDegraded1 {
		t.Fatalf("level two clean windows later = %v, want degraded1", got)
	}
	h.window(0)
	if got := h.g.Level(); got != GovNormal {
		t.Fatalf("level after CleanWindows clean windows = %v, want normal", got)
	}
	if got := h.shed(); got != [4]bool{} {
		t.Fatalf("nodes still shed after recovery: %v", got)
	}

	// A window that misses escalates on the misses, not the signal: the
	// signal is still consumed, but not counted as predictive.
	h.g.predicted.Store(true)
	h.window(8)
	if e, p := h.g.escalates.Load(), h.g.predictEscalates.Load(); e != 2 || p != 1 {
		t.Fatalf("after a missing window: escalates/predictEscalates = %d/%d, want 2/1", e, p)
	}
	if h.g.predicted.Load() {
		t.Fatal("signal survived a window boundary")
	}
}
