// Package faults provides seeded, deterministic fault injection for the
// DJ Star runtime. The fault-tolerance claim of the engine — a panicking
// or stalling DSP node is contained, quarantined and degraded around
// instead of taking the process down — is only testable if failures can
// be scripted cycle-reproducibly. An Injector wraps node run functions
// and, driven by a per-cycle counter the session advances, fires the
// configured faults at exact (node, cycle) coordinates:
//
//	panic  — the node panics before doing any work (a crashed kernel)
//	stall  — the node busy-spins for a duration (a wedged loop), long
//	         enough to trip the engine's stall watchdog
//	slow   — the node takes an extra fixed delay each armed cycle (a
//	         degraded kernel, for governor tests)
//	jitter — the node takes a random extra delay with probability Prob,
//	         derived deterministically from (seed, node, cycle)
//
// The package has no dependencies inside the repository, so both the
// graph builder (production wiring via graph.Config) and the scheduler
// tests (wrapping raw plan functions) can use it.
package faults

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Kind selects the failure mode of a Spec.
type Kind int

const (
	// KindPanic makes the node panic with an Injected value.
	KindPanic Kind = iota
	// KindStall busy-spins inside the node for Delay.
	KindStall
	// KindSlow adds Delay of busy work to every armed cycle.
	KindSlow
	// KindJitter adds up to Delay of busy work with probability Prob.
	KindJitter
)

// String returns the spec-grammar name of the kind.
func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindStall:
		return "stall"
	case KindSlow:
		return "slow"
	case KindJitter:
		return "jitter"
	default:
		return "unknown"
	}
}

// NodeWildcard matches every node name.
const NodeWildcard = "*"

// Spec is one scripted fault.
type Spec struct {
	// Kind is the failure mode.
	Kind Kind
	// Node is the target node name, or NodeWildcard for all nodes.
	Node string
	// Cycle is the first armed cycle (1-based: the first BeginCycle call
	// starts cycle 1). Cycle 0 means armed from the very first cycle.
	Cycle uint64
	// Count is how many consecutive cycles the fault stays armed
	// (0 = one cycle).
	Count uint64
	// Delay is the stall/slow/jitter magnitude.
	Delay time.Duration
	// Prob is the per-(node, cycle) firing probability for KindJitter
	// (0 = always fire while armed).
	Prob float64
}

// armed reports whether the spec fires on the given cycle.
func (sp *Spec) armed(cycle uint64) bool {
	if cycle < sp.Cycle {
		return false
	}
	n := sp.Count
	if n == 0 {
		n = 1
	}
	return cycle-sp.Cycle < n
}

// String renders the spec in the Parse grammar.
func (sp Spec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:%s@%d", sp.Kind, sp.Node, sp.Cycle)
	if sp.Count > 1 {
		fmt.Fprintf(&b, "x%d", sp.Count)
	}
	if sp.Delay > 0 {
		fmt.Fprintf(&b, ":%s", sp.Delay)
	}
	if sp.Prob > 0 {
		fmt.Fprintf(&b, "~%g", sp.Prob)
	}
	return b.String()
}

// Injected is the panic value of an injected node panic, so recovery
// paths and tests can tell scripted faults from genuine bugs.
type Injected struct {
	Node  string
	Cycle uint64
}

// Error makes Injected usable as an error value too.
func (i Injected) Error() string {
	return fmt.Sprintf("faults: injected panic in %s at cycle %d", i.Node, i.Cycle)
}

// String implements fmt.Stringer.
func (i Injected) String() string { return i.Error() }

// Stats are the cumulative injection counters.
type Stats struct {
	Panics  int64
	Stalls  int64
	Slows   int64
	Jitters int64
}

// Injector fires the configured specs as wrapped nodes execute. It is
// safe for concurrent use from scheduler workers; BeginCycle must be
// called from the (single) cycle driver.
type Injector struct {
	seed  uint64
	specs []Spec
	cycle atomic.Uint64

	panics  atomic.Int64
	stalls  atomic.Int64
	slows   atomic.Int64
	jitters atomic.Int64
}

// New returns an injector firing the given specs. The seed drives the
// jitter randomness; runs with equal seeds and specs inject identically.
func New(seed uint64, specs ...Spec) *Injector {
	return &Injector{seed: seed, specs: append([]Spec(nil), specs...)}
}

// BeginCycle advances the injector's cycle counter; the session calls it
// once per audio processing cycle, before graph execution.
func (in *Injector) BeginCycle() { in.cycle.Add(1) }

// Stats returns the cumulative injection counters.
func (in *Injector) Stats() Stats {
	return Stats{
		Panics:  in.panics.Load(),
		Stalls:  in.stalls.Load(),
		Slows:   in.slows.Load(),
		Jitters: in.jitters.Load(),
	}
}

// Wrap instruments a node run function with this injector. Nodes no spec
// targets are returned unchanged, so an injector only costs the nodes it
// can actually fault.
func (in *Injector) Wrap(node string, run func()) func() {
	var mine []Spec
	for _, sp := range in.specs {
		if sp.Node == node || sp.Node == NodeWildcard {
			mine = append(mine, sp)
		}
	}
	if len(mine) == 0 {
		return run
	}
	return func() {
		cycle := in.cycle.Load()
		for i := range mine {
			sp := &mine[i]
			if !sp.armed(cycle) {
				continue
			}
			switch sp.Kind {
			case KindStall:
				in.stalls.Add(1)
				spinFor(sp.Delay)
			case KindSlow:
				in.slows.Add(1)
				spinFor(sp.Delay)
			case KindJitter:
				if sp.Prob <= 0 || in.roll(node, cycle, uint64(i)) < sp.Prob {
					in.jitters.Add(1)
					frac := in.roll(node, cycle, uint64(i)+0x9E37)
					spinFor(time.Duration(float64(sp.Delay) * frac))
				}
			case KindPanic:
				in.panics.Add(1)
				panic(Injected{Node: node, Cycle: cycle})
			}
		}
		run()
	}
}

// roll returns a deterministic pseudo-random float64 in [0, 1) for the
// (seed, node, cycle, salt) coordinate.
func (in *Injector) roll(node string, cycle, salt uint64) float64 {
	h := in.seed ^ 0x9E3779B97F4A7C15
	for i := 0; i < len(node); i++ {
		h = (h ^ uint64(node[i])) * 0x100000001B3
	}
	h ^= cycle * 0xBF58476D1CE4E5B9
	h ^= salt * 0x94D049BB133111EB
	// splitmix64 finalizer
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return float64(h>>11) / float64(1<<53)
}

// spinFor burns CPU for d, like a wedged or overrunning kernel would —
// it keeps the worker's OS thread busy rather than yielding it, which is
// the failure mode the stall watchdog exists for.
func spinFor(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
	}
}

// Parse reads a comma-separated fault script, one spec per entry:
//
//	kind:node@cycle[xCount][:duration][~prob]
//
// Examples:
//
//	panic:FXA2@100x3            panic in FXA2 on cycles 100..102
//	stall:Mixer@5000:150ms      one 150 ms stall in Mixer at cycle 5000
//	slow:SPA1@1x1000:100us      100 µs extra in SPA1 for 1000 cycles
//	jitter:*@1x10000:50us~0.01  ≤50 µs on 1% of all node runs
func Parse(script string) ([]Spec, error) {
	var specs []Spec
	for _, entry := range strings.Split(script, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		sp, err := parseOne(entry)
		if err != nil {
			return nil, err
		}
		specs = append(specs, sp)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("faults: empty fault script")
	}
	return specs, nil
}

// MustParse is Parse that panics on error (for tests and examples).
func MustParse(script string) []Spec {
	specs, err := Parse(script)
	if err != nil {
		panic(err)
	}
	return specs
}

func parseOne(entry string) (Spec, error) {
	var sp Spec
	kind, rest, ok := strings.Cut(entry, ":")
	if !ok {
		return sp, fmt.Errorf("faults: %q: want kind:node@cycle[xCount][:duration][~prob]", entry)
	}
	switch kind {
	case "panic":
		sp.Kind = KindPanic
	case "stall":
		sp.Kind = KindStall
	case "slow":
		sp.Kind = KindSlow
	case "jitter":
		sp.Kind = KindJitter
	default:
		return sp, fmt.Errorf("faults: %q: unknown kind %q (want panic, stall, slow, jitter)", entry, kind)
	}
	if rest, ok = cutTail(rest, "~", func(s string) error {
		p, err := strconv.ParseFloat(s, 64)
		if err != nil || p < 0 || p > 1 {
			return fmt.Errorf("probability %q not in [0,1]", s)
		}
		sp.Prob = p
		return nil
	}); !ok {
		return sp, fmt.Errorf("faults: %q: bad probability", entry)
	}
	node, at, ok := strings.Cut(rest, "@")
	if !ok || node == "" {
		return sp, fmt.Errorf("faults: %q: missing node@cycle", entry)
	}
	sp.Node = node
	// Optional :duration suffix after the cycle spec.
	if at, ok = cutTail(at, ":", func(s string) error {
		d, err := time.ParseDuration(s)
		if err != nil || d < 0 {
			return fmt.Errorf("duration %q", s)
		}
		sp.Delay = d
		return nil
	}); !ok {
		return sp, fmt.Errorf("faults: %q: bad duration", entry)
	}
	cycleStr, countStr, hasCount := strings.Cut(at, "x")
	cycle, err := strconv.ParseUint(cycleStr, 10, 64)
	if err != nil {
		return sp, fmt.Errorf("faults: %q: bad cycle %q", entry, cycleStr)
	}
	sp.Cycle = cycle
	if hasCount {
		count, err := strconv.ParseUint(countStr, 10, 64)
		if err != nil || count == 0 {
			return sp, fmt.Errorf("faults: %q: bad count %q", entry, countStr)
		}
		sp.Count = count
	}
	if (sp.Kind == KindStall || sp.Kind == KindSlow || sp.Kind == KindJitter) && sp.Delay <= 0 {
		return sp, fmt.Errorf("faults: %q: %s needs a :duration", entry, sp.Kind)
	}
	return sp, nil
}

// cutTail splits off an optional "sep<value>" suffix and parses it.
func cutTail(s, sep string, parse func(string) error) (string, bool) {
	head, tail, found := strings.Cut(s, sep)
	if !found {
		return s, true
	}
	if err := parse(tail); err != nil {
		return head, false
	}
	return head, true
}
