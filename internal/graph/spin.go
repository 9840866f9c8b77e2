package graph

import (
	"math"
	"sync/atomic"
)

// Workload modeling.
//
// Our DSP kernels on a 2026 machine finish a 128-sample packet in a few
// microseconds, while the paper's 2015 laptop-class nodes take tens of
// microseconds. To reproduce the paper's *scale* (sequential sum ~1.1 ms,
// critical path ~295 µs) and its data-dependent cost variation, every
// audio node runs its real DSP kernel and then a calibrated spin workload
// topping the node up to a target cost. Spin work is pure deterministic
// arithmetic — no allocation, no syscalls, no sharing — exactly the
// busy-CPU behaviour of a heavier effect kernel.

// spinSink defeats dead-code elimination of the spin loop.
var spinSink atomic.Uint64

// SpinUnit is the amount of arithmetic performed per work unit (iterations
// of the inner loop). One unit is a few nanoseconds on current hardware.
const SpinUnit = 16

// Spin performs `units` work units of deterministic arithmetic.
func Spin(units int64) {
	var acc uint64 = 0x9E3779B97F4A7C15
	for i := int64(0); i < units; i++ {
		for j := 0; j < SpinUnit; j++ {
			acc ^= acc << 13
			acc ^= acc >> 7
			acc ^= acc << 17
		}
	}
	spinSink.Store(acc)
}

// Calibration converts between wall-clock node cost targets and spin work
// units on the current machine.
type Calibration struct {
	// NanosPerUnit is the measured cost of one spin unit in nanoseconds.
	NanosPerUnit float64
}

// Calibrate measures the spin loop. It runs for a few milliseconds and is
// intended to be called once per process (the engine caches it).
func Calibrate() Calibration {
	// Warm up.
	Spin(20000)
	const units = 200000
	best := float64(1 << 62)
	for trial := 0; trial < 3; trial++ {
		start := nowNanos()
		Spin(units)
		el := float64(nowNanos()-start) / units
		if el < best {
			best = el
		}
	}
	if best <= 0 {
		best = 1
	}
	return Calibration{NanosPerUnit: best}
}

// UnitsForMicros returns the spin units approximating us microseconds.
func (c Calibration) UnitsForMicros(us float64) int64 {
	if c.NanosPerUnit <= 0 || us <= 0 {
		return 0
	}
	return int64(us * 1000 / c.NanosPerUnit)
}

// Cost describes a node's target execution cost in microseconds at scale
// 1.0 (paper scale). Base is always spent; Data is spent only when the
// node's input signal is active (loud), which is what makes the paper's
// execution-time histograms bimodal.
type Cost struct {
	BaseUS float64
	DataUS float64
}

// MeanUS is the cost's expected average: the base plus half the
// data-dependent part, since the synthetic tracks are loud about half
// the time. It is how the paper's "average vertex computation time"
// feeds the schedule analyses.
func (c Cost) MeanUS() float64 { return c.BaseUS + c.DataUS/2 }

// Standard node cost targets (µs, paper scale). Derived in DESIGN.md §4 to
// reproduce the paper's sequential sum (~1.09 ms), critical path (~295 µs)
// and 4-core optimum (~324 µs).
var (
	CostSP      = Cost{BaseUS: 8}
	CostFX      = Cost{BaseUS: 40, DataUS: 16}
	CostChannel = Cost{BaseUS: 25}
	CostMixer   = Cost{BaseUS: 35}
	CostMaster  = Cost{BaseUS: 20}
	CostOut     = Cost{BaseUS: 15}
	CostRecord  = Cost{BaseUS: 15}
	CostCue     = Cost{BaseUS: 10}
	CostMonitor = Cost{BaseUS: 8}
	CostSampler = Cost{BaseUS: 10}
	CostControl = Cost{BaseUS: 2}
	CostMeter   = Cost{BaseUS: 4}
)

// LoadFactor is a shared, runtime-adjustable multiplier on node cost
// targets. The engine's deadline governor uses it to shed load under
// overload (Critical level halves it), and overload experiments inflate
// it to simulate a machine suddenly too slow for the graph. It is read
// by every Load on every node execution, so it is a single atomic.
type LoadFactor struct {
	bits atomic.Uint64
}

// NewLoadFactor returns a factor initialized to 1.0.
func NewLoadFactor() *LoadFactor {
	lf := &LoadFactor{}
	lf.Set(1.0)
	return lf
}

// Set stores the factor (values < 0 clamp to 0).
func (lf *LoadFactor) Set(f float64) {
	if f < 0 {
		f = 0
	}
	lf.bits.Store(math.Float64bits(f))
}

// Get loads the factor.
func (lf *LoadFactor) Get() float64 { return math.Float64frombits(lf.bits.Load()) }

// Load converts cost targets to concrete spin work for a node.
type Load struct {
	baseUnits int64
	dataUnits int64
	baseNs    int64
	dataNs    int64
	chunk     int64 // spin units per top-up probe (~0.5 µs)
	// factor, when non-nil, scales the target at run time (governor /
	// overload control); nil means a fixed 1.0.
	factor *LoadFactor
}

// NewLoad builds a Load from a cost target, a calibration and a global
// scale factor (1.0 = paper scale; tests use much smaller values).
func NewLoad(c Cost, cal Calibration, scale float64) Load {
	chunk := cal.UnitsForMicros(0.5)
	if chunk < 1 {
		chunk = 1
	}
	return Load{
		baseUnits: cal.UnitsForMicros(c.BaseUS * scale),
		dataUnits: cal.UnitsForMicros(c.DataUS * scale),
		baseNs:    int64(c.BaseUS * scale * 1000),
		dataNs:    int64(c.DataUS * scale * 1000),
		chunk:     chunk,
	}
}

// WithFactor attaches a runtime load factor to the load (nil detaches).
func (l Load) WithFactor(lf *LoadFactor) Load {
	l.factor = lf
	return l
}

// Run spends the load's base work, plus the data work when active, as a
// fixed amount of spin work on top of whatever the caller already did.
func (l Load) Run(active bool) {
	u := l.baseUnits
	if active {
		u += l.dataUnits
	}
	if l.factor != nil {
		u = int64(float64(u) * l.factor.Get())
	}
	Spin(u)
}

// RunSince tops the caller's elapsed time up to the load's target: the
// node's real DSP kernel started at startNs (from NowNanos); RunSince
// spins until the total node cost reaches the target, so node cost is
// max(real kernel, target) rather than their sum. This keeps the
// paper-scale cost model accurate across hosts of very different speeds.
func (l Load) RunSince(startNs int64, active bool) {
	target := l.baseNs
	if active {
		target += l.dataNs
	}
	if l.factor != nil {
		target = int64(float64(target) * l.factor.Get())
	}
	if target == 0 {
		return
	}
	deadline := startNs + target
	for nowNanos() < deadline {
		Spin(l.chunk)
	}
}

// Enabled reports whether the load has any work target (false at scale 0).
func (l Load) Enabled() bool { return l.baseNs > 0 || l.dataNs > 0 }
