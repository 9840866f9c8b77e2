package engine

import (
	"fmt"
	"sync/atomic"
)

// cycleRecord is the one account of a completed APC. Cycle builds it
// once from five graph.NowNanos stamps and every consumer — governor,
// totals, telemetry, Hooks.OnCycle — is fed from it, so all read-outs
// count the same cycles and the same misses. Times are integer
// nanoseconds and tp+gp+graph+vc == apc exactly.
type cycleRecord struct {
	cycle                  uint64
	tp, gp, graph, vc, apc int64
	miss                   bool
	// gov is the governor level after this cycle's observation.
	gov GovLevel
}

func nsToMS(ns int64) float64 { return float64(ns) / 1e6 }

// info derives the hook payload.
func (r *cycleRecord) info() CycleInfo {
	return CycleInfo{
		Cycle: r.cycle,
		TPMS:  nsToMS(r.tp), GPMS: nsToMS(r.gp), GraphMS: nsToMS(r.graph), VCMS: nsToMS(r.vc),
		APCMS:        nsToMS(r.apc),
		DeadlineMiss: r.miss,
	}
}

// Metrics is the account of a run of cycles: integer-nanosecond totals
// of the cycle records added to it. The engine keeps one for its whole
// life (Totals, behind Snapshot); a caller keeps one per run window by
// passing it to Cycle. The zero value is ready to use. One thread adds
// (the cycle thread); any thread may read, lock-free — exactly between
// cycles, to within the cycle in flight otherwise. The APC sum is the
// four stage sums.
type Metrics struct {
	cycles, misses            atomic.Uint64
	tpNS, gpNS, graphNS, vcNS atomic.Int64
	graphMaxNS, apcMaxNS      atomic.Int64

	// KeepSamples makes Cycle retain every cycle's graph and APC time
	// (ms) in the two slices, for histograms and percentiles: 16 bytes
	// per cycle, appended on the cycle thread, to be read once the run is
	// over.
	KeepSamples    bool
	GraphSamplesMS []float64
	APCSamplesMS   []float64
}

func (m *Metrics) add(r *cycleRecord) {
	m.tpNS.Add(r.tp)
	m.gpNS.Add(r.gp)
	m.graphNS.Add(r.graph)
	m.vcNS.Add(r.vc)
	if r.graph > m.graphMaxNS.Load() {
		m.graphMaxNS.Store(r.graph)
	}
	if r.apc > m.apcMaxNS.Load() {
		m.apcMaxNS.Store(r.apc)
	}
	if r.miss {
		m.misses.Add(1)
	}
	m.cycles.Add(1)
}

// perCycle divides a total by the cycle count (0 before the first cycle).
func (m *Metrics) perCycle(total float64) float64 {
	if n := m.cycles.Load(); n > 0 {
		return total / float64(n)
	}
	return 0
}

// Cycles is the number of cycles recorded; Misses counts those whose APC
// exceeded the 2.902 ms packet period, MissRate their share.
func (m *Metrics) Cycles() uint64    { return m.cycles.Load() }
func (m *Metrics) Misses() uint64    { return m.misses.Load() }
func (m *Metrics) MissRate() float64 { return m.perCycle(float64(m.misses.Load())) }

// Stage means over the recorded cycles, milliseconds; the APC mean is
// the sum of the four stage means.
func (m *Metrics) TPMeanMS() float64    { return m.perCycle(nsToMS(m.tpNS.Load())) }
func (m *Metrics) GPMeanMS() float64    { return m.perCycle(nsToMS(m.gpNS.Load())) }
func (m *Metrics) GraphMeanMS() float64 { return m.perCycle(nsToMS(m.graphNS.Load())) }
func (m *Metrics) VCMeanMS() float64    { return m.perCycle(nsToMS(m.vcNS.Load())) }
func (m *Metrics) APCMeanMS() float64 {
	return m.perCycle(nsToMS(m.tpNS.Load() + m.gpNS.Load() + m.graphNS.Load() + m.vcNS.Load()))
}

// GraphMaxMS and APCMaxMS are the worst graph stage and the worst APC
// of the recorded cycles, milliseconds.
func (m *Metrics) GraphMaxMS() float64 { return nsToMS(m.graphMaxNS.Load()) }
func (m *Metrics) APCMaxMS() float64   { return nsToMS(m.apcMaxNS.Load()) }

// String summarizes the run.
func (m *Metrics) String() string {
	return fmt.Sprintf("%d cycles, graph mean %.4f ms (max %.4f), APC mean %.4f ms, misses %d/%d",
		m.Cycles(), m.GraphMeanMS(), m.GraphMaxMS(), m.APCMeanMS(), m.Misses(), m.Cycles())
}
