package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"time"
)

// OpenMetrics / Prometheus text exposition for a set of collectors. The
// writer groups samples by metric family (one # HELP / # TYPE header per
// family, then one sample per collector, labelled by strategy and
// session) and terminates the document with # EOF as OpenMetrics
// requires. Counter families carry the _total suffix; histogram families
// emit cumulative le buckets plus _sum and _count.

// Registry is an ordered set of collectors exposed on one /metrics
// endpoint — one per engine session.
type Registry struct {
	mu   sync.Mutex
	cols []*Collector
}

// NewRegistry builds a registry over the given collectors.
func NewRegistry(cols ...*Collector) *Registry {
	r := &Registry{}
	for _, c := range cols {
		r.Add(c)
	}
	return r
}

// Add registers a collector. Nil collectors are ignored.
func (r *Registry) Add(c *Collector) {
	if c == nil {
		return
	}
	r.mu.Lock()
	r.cols = append(r.cols, c)
	r.mu.Unlock()
}

// Collectors snapshots the registered collectors.
func (r *Registry) Collectors() []*Collector {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Collector, len(r.cols))
	copy(out, r.cols)
	return out
}

// counterFamily and gaugeFamily describe scalar families generically so
// the writer stays one loop, not one block per metric.
type scalarFamily struct {
	name, help string
	value      func(*Collector) float64
}

var counterFamilies = []scalarFamily{
	{"djstar_cycles_total", "Audio processing cycles completed.",
		func(c *Collector) float64 { return float64(c.cycles.Load()) }},
	{"djstar_deadline_misses_total", "Cycles that exceeded the 2.902 ms packet deadline.",
		func(c *Collector) float64 { return float64(c.misses.Load()) }},
	{"djstar_faults_recovered_total", "Node panics contained by the scheduler.",
		func(c *Collector) float64 { return float64(c.faults.Load()) }},
	{"djstar_quarantines_total", "Node quarantine transitions.",
		func(c *Collector) float64 { return float64(c.quarantines.Load()) }},
	{"djstar_stalls_total", "Stall watchdog detections.",
		func(c *Collector) float64 { return float64(c.stalls.Load()) }},
	{"djstar_governor_transitions_total", "Deadline governor level changes.",
		func(c *Collector) float64 { return float64(c.govChanges.Load()) }},
	{"djstar_incidents_total", "Flight recorder incident triggers.",
		func(c *Collector) float64 { return float64(c.incidents.Load()) }},
	{"djstar_bus_dropped_events_total", "Middleware bus events dropped by slow subscribers.",
		func(c *Collector) float64 { return float64(c.busDrops.Load()) }},
	{"djstar_admission_degrades_total", "Sessions admitted pre-degraded by the admission gate.",
		func(c *Collector) float64 { return float64(c.admDegrades.Load()) }},
	{"djstar_admission_refused_edits_total", "Live edits rejected as unschedulable by the admission gate.",
		func(c *Collector) float64 { return float64(c.admRefusedEd.Load()) }},
	{"djstar_admission_predicted_overloads_total", "Predictive overload excursions (analytical bound crossed the envelope before misses).",
		func(c *Collector) float64 { return float64(c.admPredicted.Load()) }},
}

var gaugeFamilies = []scalarFamily{
	{"djstar_governor_level", "Current governor degradation level (0 = normal ... 3 = critical).",
		func(c *Collector) float64 { return float64(c.govLevel.Load()) }},
	{"djstar_slo_budget_remaining_ratio", "Unspent fraction of the rolling deadline-miss budget.",
		func(c *Collector) float64 { return c.SLO().BudgetRemaining }},
	{"djstar_cycle_rate_hz", "Cycle completion rate over the last minute.",
		func(c *Collector) float64 { hz, _ := c.Rates1m(); return hz }},
	{"djstar_miss_rate_1m", "Deadline miss fraction over the last minute.",
		func(c *Collector) float64 { _, mr := c.Rates1m(); return mr }},
	{"djstar_admission_bound_seconds", "Latest analytical response-time bound from the admission gate.",
		func(c *Collector) float64 { b, _ := c.AdmissionBound(); return b / 1e6 }},
	{"djstar_admission_headroom_seconds", "Deadline envelope minus the analytical bound (negative = predicted overload).",
		func(c *Collector) float64 { _, h := c.AdmissionBound(); return h / 1e6 }},
}

// WriteOpenMetrics writes the full exposition document for every
// registered collector.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cols := r.Collectors()
	for _, f := range counterFamilies {
		writeHeader(bw, f.name, f.help, "counter")
		for _, c := range cols {
			writeSample(bw, f.name, c, "", f.value(c))
		}
	}
	for _, f := range gaugeFamilies {
		writeHeader(bw, f.name, f.help, "gauge")
		for _, c := range cols {
			writeSample(bw, f.name, c, "", f.value(c))
		}
	}
	// Burn-rate gauge with a window label.
	writeHeader(bw, "djstar_slo_burn_rate", "Deadline-miss burn rate (observed rate / budget rate) per window.", "gauge")
	for _, c := range cols {
		s := c.SLO()
		writeSample(bw, "djstar_slo_burn_rate", c, `window="1m"`, s.BurnRate1m)
		writeSample(bw, "djstar_slo_burn_rate", c, `window="5m"`, s.BurnRate5m)
		writeSample(bw, "djstar_slo_burn_rate", c, `window="15m"`, s.BurnRate15m)
	}
	writeHistogramFamily(bw, "djstar_apc_seconds", "APC cycle time.", cols,
		func(c *Collector) *Histogram { return &c.APC })
	writeHistogramFamily(bw, "djstar_graph_seconds", "Task-graph execution time within the APC.", cols,
		func(c *Collector) *Histogram { return &c.Graph })
	fmt.Fprint(bw, "# EOF\n")
	return bw.Flush()
}

func writeHeader(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func writeSample(w io.Writer, name string, c *Collector, extraLabel string, v float64) {
	if extraLabel != "" {
		extraLabel = "," + extraLabel
	}
	fmt.Fprintf(w, "%s{%s%s} %s\n", name, c.labels(), extraLabel, formatValue(v))
}

// labels renders the collector's identifying label set. The shard label
// only appears in fleet mode, so single-engine expositions are
// byte-identical to earlier versions.
func (c *Collector) labels() string {
	if s := c.Shard(); s != "" {
		return fmt.Sprintf("strategy=%q,session=%q,shard=%q", c.cfg.Strategy, c.cfg.Session, s)
	}
	return fmt.Sprintf("strategy=%q,session=%q", c.cfg.Strategy, c.cfg.Session)
}

func writeHistogramFamily(w io.Writer, name, help string, cols []*Collector, h func(*Collector) *Histogram) {
	writeHeader(w, name, help, "histogram")
	for _, c := range cols {
		hist := h(c)
		labels := c.labels()
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

// Handler serves the registry's exposition text on /metrics.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteOpenMetrics(w)
	})
	return mux
}

// Server is a standalone metrics endpoint (djstar -metrics): just the
// registry handler, no pprof, no engine coupling.
type Server struct {
	srv *http.Server
	ln  net.Listener
}

// Serve listens on addr and serves the registry until Close.
func (r *Registry) Serve(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		srv: &http.Server{Handler: r.Handler(), ReadHeaderTimeout: 5 * time.Second},
		ln:  ln,
	}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down.
func (s *Server) Close() error { return s.srv.Close() }
