package engine

import "djstar/internal/sched"

// Hooks is the engine's consolidated event surface: every callback the
// engine can emit lives here, replacing the ad-hoc per-event Config
// fields that accumulated one by one (OnFault, OnGovChange, OnStall).
// The zero value is a valid no-op; set only the events you consume. New
// event kinds join this struct instead of growing Config. Sampled
// schedule realizations are not pushed: read them from
// Collector().Traces().
type Hooks struct {
	// OnFault is invoked synchronously from the worker that recovered a
	// node panic; it must be cheap and concurrency-safe.
	OnFault func(sched.FaultRecord)
	// OnGovChange is notified of governor level transitions (called on
	// the cycle thread).
	OnGovChange func(from, to GovLevel)
	// OnStall is invoked from the watchdog goroutine when a graph
	// execution stuck past the hard wall is detected.
	OnStall func(StallRecord)
	// OnCycle is invoked on the cycle thread after every completed APC
	// with that cycle's component timings. It is on the audio path: keep
	// it cheap and allocation-free.
	OnCycle func(CycleInfo)
}

// CycleInfo is one completed APC's timing breakdown, delivered to
// Hooks.OnCycle.
type CycleInfo struct {
	// Cycle is the engine cycle count (1-based).
	Cycle uint64
	// Component times in milliseconds (TP + GP + Graph + VC = APC).
	TPMS, GPMS, GraphMS, VCMS, APCMS float64
	// DeadlineMiss reports APCMS exceeded the 2.902 ms packet period.
	DeadlineMiss bool
}
