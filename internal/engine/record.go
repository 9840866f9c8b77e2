package engine

import "sync/atomic"

// cycleRecord is the one account of a completed APC. Cycle builds it
// once from five graph.NowNanos stamps and every consumer — governor,
// whole-run totals, telemetry, Hooks.OnCycle, Metrics — is fed from it,
// so all read-outs count the same cycles and the same misses. Times are
// integer nanoseconds and tp+gp+graph+vc == apc exactly.
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

// cycleTotals is the engine's always-on whole-run accounting, independent
// of any user-supplied Metrics sink: written by the cycle thread alone,
// read lock-free by Snapshot. The APC sum is the four component sums.
type cycleTotals struct {
	cycles, misses            atomic.Uint64
	tpNS, gpNS, graphNS, vcNS atomic.Int64
	graphMaxNS, apcMaxNS      atomic.Int64
}

func (t *cycleTotals) add(r *cycleRecord) {
	t.tpNS.Add(r.tp)
	t.gpNS.Add(r.gp)
	t.graphNS.Add(r.graph)
	t.vcNS.Add(r.vc)
	if r.graph > t.graphMaxNS.Load() {
		t.graphMaxNS.Store(r.graph)
	}
	if r.apc > t.apcMaxNS.Load() {
		t.apcMaxNS.Store(r.apc)
	}
	if r.miss {
		t.misses.Add(1)
	}
	// Last, so a reader that sees n cycles sees at least n cycles' sums.
	t.cycles.Add(1)
}

// add accumulates one record into a run's metrics sink.
func (m *Metrics) add(r *cycleRecord) {
	gr, apc := nsToMS(r.graph), nsToMS(r.apc)
	m.Cycles++
	m.TP.Add(nsToMS(r.tp))
	m.GP.Add(nsToMS(r.gp))
	m.Graph.Add(gr)
	m.VC.Add(nsToMS(r.vc))
	m.APC.Add(apc)
	m.Deadline.Add(apc)
	m.GraphDeadline.Add(gr)
	if m.samples {
		m.GraphSamplesMS = append(m.GraphSamplesMS, gr)
		m.APCSamplesMS = append(m.APCSamplesMS, apc)
	}
}
