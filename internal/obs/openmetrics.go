package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
)

// OpenMetrics / Prometheus text exposition for a set of sinks. The
// writer groups samples by metric family (one # HELP / # TYPE header per
// family, then one sample per sink, labelled by strategy, session and —
// in a fleet — shard) and terminates the document with # EOF as
// OpenMetrics requires. Counter families carry the _total suffix;
// histogram families emit cumulative le buckets plus _sum and _count.

// scalarFamilies describes the counter and gauge families generically,
// in exposition order, so the writer stays one loop, not one block per
// metric. Counters read the Totals the event-kind table counts into.
var scalarFamilies = []struct {
	name, typ, help string
	value           func(*scrape) float64
}{
	{"djstar_cycles_total", "counter", "Audio processing cycles completed.",
		func(s *scrape) float64 { return float64(s.tot.Cycles) }},
	{"djstar_deadline_misses_total", "counter", "Cycles that exceeded the 2.902 ms packet deadline.",
		func(s *scrape) float64 { return float64(s.tot.DeadlineMisses) }},
	{"djstar_faults_recovered_total", "counter", "Node panics contained by the scheduler.",
		func(s *scrape) float64 { return float64(s.tot.Faults) }},
	{"djstar_quarantines_total", "counter", "Node quarantine transitions.",
		func(s *scrape) float64 { return float64(s.tot.Quarantines) }},
	{"djstar_stalls_total", "counter", "Stall watchdog detections.",
		func(s *scrape) float64 { return float64(s.tot.Stalls) }},
	{"djstar_governor_transitions_total", "counter", "Deadline governor level changes.",
		func(s *scrape) float64 { return float64(s.tot.GovTransitions) }},
	{"djstar_incidents_total", "counter", "Flight recorder incident triggers.",
		func(s *scrape) float64 { return float64(s.tot.Incidents) }},
	{"djstar_admission_degrades_total", "counter", "Sessions admitted pre-degraded by the admission gate.",
		func(s *scrape) float64 { return float64(s.tot.AdmissionDegrades) }},
	{"djstar_admission_refused_edits_total", "counter", "Live edits rejected as unschedulable by the admission gate.",
		func(s *scrape) float64 { return float64(s.tot.RefusedEdits) }},
	{"djstar_admission_predicted_overloads_total", "counter", "Predictive overload excursions (analytical bound crossed the envelope before misses).",
		func(s *scrape) float64 { return float64(s.tot.PredictedOverloads) }},

	{"djstar_governor_level", "gauge", "Current governor degradation level (0 = normal ... 3 = critical).",
		func(s *scrape) float64 { return float64(s.tot.GovLevel) }},
	{"djstar_slo_budget_remaining_ratio", "gauge", "Unspent fraction of the rolling deadline-miss budget.",
		func(s *scrape) float64 { return s.slo.BudgetRemaining }},
	{"djstar_cycle_rate_hz", "gauge", "Cycle completion rate over the last minute.",
		func(s *scrape) float64 { return s.cycleHz }},
	{"djstar_miss_rate_1m", "gauge", "Deadline miss fraction over the last minute.",
		func(s *scrape) float64 { return s.missRate }},
	{"djstar_admission_bound_seconds", "gauge", "Latest analytical response-time bound from the admission gate.",
		func(s *scrape) float64 { return s.tot.AdmissionBoundUS / 1e6 }},
	{"djstar_admission_headroom_seconds", "gauge", "Deadline envelope minus the analytical bound (negative = predicted overload).",
		func(s *scrape) float64 { return s.tot.AdmissionHeadroom / 1e6 }},
}

// WriteOpenMetrics writes the full exposition document for the given
// sinks, one series per sink in every family. Nil (disabled) sinks are
// skipped.
func WriteOpenMetrics(w io.Writer, sinks ...*Sink) error {
	scs := make([]scrape, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			scs = append(scs, s.scrape(0))
		}
	}
	bw := bufio.NewWriter(w)
	for _, f := range scalarFamilies {
		writeHeader(bw, f.name, f.help, f.typ)
		for i := range scs {
			writeSample(bw, f.name, scs[i].labels, f.value(&scs[i]))
		}
	}
	// Burn-rate gauge with a window label.
	writeHeader(bw, "djstar_slo_burn_rate", "Deadline-miss burn rate (observed rate / budget rate) per window.", "gauge")
	for i := range scs {
		sc := &scs[i]
		writeSample(bw, "djstar_slo_burn_rate", sc.labels+`,window="1m"`, sc.slo.BurnRate1m)
		writeSample(bw, "djstar_slo_burn_rate", sc.labels+`,window="5m"`, sc.slo.BurnRate5m)
		writeSample(bw, "djstar_slo_burn_rate", sc.labels+`,window="15m"`, sc.slo.BurnRate15m)
	}
	writeHistogramFamily(bw, "djstar_apc_seconds", "APC cycle time.", scs,
		func(s *scrape) *Histogram { return s.apc })
	writeHistogramFamily(bw, "djstar_graph_seconds", "Task-graph execution time within the APC.", scs,
		func(s *scrape) *Histogram { return s.graph })
	fmt.Fprint(bw, "# EOF\n")
	return bw.Flush()
}

func writeHeader(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func writeSample(w io.Writer, name, labels string, v float64) {
	fmt.Fprintf(w, "%s{%s} %s\n", name, labels, formatValue(v))
}

func writeHistogramFamily(w io.Writer, name, help string, scs []scrape, h func(*scrape) *Histogram) {
	writeHeader(w, name, help, "histogram")
	for i := range scs {
		hist, labels := h(&scs[i]), scs[i].labels
		for _, b := range hist.Buckets() {
			le := "+Inf"
			if !math.IsInf(b.UpperSeconds, 1) {
				le = formatValue(b.UpperSeconds)
			}
			fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d\n", name, labels, le, b.CumulativeCount)
		}
		fmt.Fprintf(w, "%s_sum{%s} %s\n", name, labels, formatValue(hist.SumSeconds()))
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, hist.Count())
	}
}

// formatValue renders a float the way the exposition format expects:
// integral values without an exponent, everything else in shortest form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// ServeMetrics answers a /metrics scrape with the sinks' exposition.
func ServeMetrics(w http.ResponseWriter, sinks ...*Sink) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = WriteOpenMetrics(w, sinks...)
}
