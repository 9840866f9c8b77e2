package obs

import (
	"bufio"
	"bytes"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// lintExposition validates the Prometheus/OpenMetrics text format rules
// a scraper relies on: every sample belongs to a family announced by
// # HELP and # TYPE lines, counter family names end in _total
// (histograms in _bucket/_sum/_count), histogram cumulative counts are
// monotone in le, and the document terminates with # EOF.
// It returns the parsed samples for cross-scrape checks.
func lintExposition(t *testing.T, doc string) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	types := map[string]string{}
	helped := map[string]bool{}
	sawEOF := false
	sc := bufio.NewScanner(strings.NewReader(doc))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if sawEOF {
			t.Fatalf("content after # EOF: %q", line)
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) < 3 {
				if line == "# EOF" {
					sawEOF = true
					continue
				}
				t.Fatalf("malformed comment line %q", line)
			}
			switch fields[1] {
			case "HELP":
				helped[fields[2]] = true
			case "TYPE":
				if len(fields) != 4 {
					t.Fatalf("malformed TYPE line %q", line)
				}
				types[fields[2]] = fields[3]
			case "EOF":
				sawEOF = true
			default:
				t.Fatalf("unknown comment keyword in %q", line)
			}
			continue
		}
		// Sample line: name{labels} value
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		series, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("sample %q: bad value: %v", line, err)
		}
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("sample %q: unterminated label set", line)
			}
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suffix) {
				if typ := types[strings.TrimSuffix(name, suffix)]; typ == "histogram" {
					family = strings.TrimSuffix(name, suffix)
				}
			}
		}
		typ, ok := types[family]
		if !ok {
			t.Fatalf("sample %q has no # TYPE header", line)
		}
		if !helped[family] {
			t.Fatalf("sample %q has no # HELP header", line)
		}
		if typ == "counter" && !strings.HasSuffix(family, "_total") {
			t.Fatalf("counter family %q does not end in _total", family)
		}
		if typ == "counter" && val < 0 {
			t.Fatalf("counter sample %q is negative", line)
		}
		samples[series] = val
	}
	if !sawEOF {
		t.Fatal("exposition does not end with # EOF")
	}
	// Histogram le-bucket monotonicity: group _bucket series by their
	// non-le labels and check cumulative counts never decrease.
	type bucketSeen struct {
		lastLE  float64
		lastVal float64
	}
	hist := map[string]*bucketSeen{}
	sc = bufio.NewScanner(strings.NewReader(doc))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || !strings.Contains(line, "_bucket{") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		series, valStr := line[:sp], line[sp+1:]
		val, _ := strconv.ParseFloat(valStr, 64)
		leStart := strings.Index(series, `le="`)
		if leStart < 0 {
			t.Fatalf("bucket sample %q has no le label", line)
		}
		leEnd := strings.IndexByte(series[leStart+4:], '"')
		leStr := series[leStart+4 : leStart+4+leEnd]
		le := 0.0
		if leStr == "+Inf" {
			le = 1e308
		} else if f, err := strconv.ParseFloat(leStr, 64); err != nil {
			t.Fatalf("bucket sample %q: bad le %q", line, leStr)
		} else {
			le = f
		}
		key := series[:leStart] // family + leading labels identify the series
		if b, ok := hist[key]; ok {
			if le <= b.lastLE {
				t.Fatalf("bucket le not increasing in %q", line)
			}
			if val < b.lastVal {
				t.Fatalf("bucket cumulative count decreased in %q", line)
			}
			b.lastLE, b.lastVal = le, val
		} else {
			hist[key] = &bucketSeen{lastLE: le, lastVal: val}
		}
	}
	return samples
}

func scrapeString(t *testing.T, sinks ...*Sink) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteOpenMetrics(&buf, sinks...); err != nil {
		t.Fatalf("WriteOpenMetrics: %v", err)
	}
	return buf.String()
}

func TestOpenMetricsExpositionLints(t *testing.T) {
	c := NewSink(SinkConfig{Strategy: "busy", Session: "0"})
	for i := 0; i < 500; i++ {
		c.RecordCycle(uint64(i+1), 100, 1_200_000, 400_000, i%100 == 0, 0)
	}
	c.Event(Quarantine, 500, "n")
	// A nil (disabled) sink contributes no series.
	doc := scrapeString(t, c, nil)
	samples := lintExposition(t, doc)

	mustHave := []string{
		`djstar_cycles_total{strategy="busy",session="0"}`,
		`djstar_deadline_misses_total{strategy="busy",session="0"}`,
		`djstar_faults_recovered_total{strategy="busy",session="0"}`,
		`djstar_quarantines_total{strategy="busy",session="0"}`,
		`djstar_slo_budget_remaining_ratio{strategy="busy",session="0"}`,
		`djstar_slo_burn_rate{strategy="busy",session="0",window="1m"}`,
		`djstar_apc_seconds_count{strategy="busy",session="0"}`,
		`djstar_graph_seconds_count{strategy="busy",session="0"}`,
	}
	for _, s := range mustHave {
		if _, ok := samples[s]; !ok {
			t.Errorf("exposition missing sample %s", s)
		}
	}
	if got := samples[`djstar_cycles_total{strategy="busy",session="0"}`]; got != 500 {
		t.Errorf("cycles_total = %v, want 500", got)
	}
	if got := samples[`djstar_deadline_misses_total{strategy="busy",session="0"}`]; got != 5 {
		t.Errorf("misses_total = %v, want 5", got)
	}
	if got := samples[`djstar_apc_seconds_count{strategy="busy",session="0"}`]; got != 500 {
		t.Errorf("apc count = %v, want 500", got)
	}
	if !strings.Contains(doc, `djstar_apc_seconds_bucket{strategy="busy",session="0",le="+Inf"} 500`) {
		t.Error("apc histogram missing +Inf bucket at total count")
	}
}

func TestOpenMetricsCountersMonotoneAcrossScrapes(t *testing.T) {
	c := NewSink(SinkConfig{Strategy: "ws", Session: "1"})
	record := func(n int) {
		for i := 0; i < n; i++ {
			c.RecordCycle(1, 42, 3_000_000, 2_900_000, true, 1)
		}
	}
	record(100)
	first := lintExposition(t, scrapeString(t, c))
	record(50)
	c.Event(Fault, 150, "n")
	second := lintExposition(t, scrapeString(t, c))
	for series, v1 := range first {
		if !strings.Contains(series, "_total{") {
			continue
		}
		if v2 := second[series]; v2 < v1 {
			t.Errorf("counter %s went backwards: %v -> %v", series, v1, v2)
		}
	}
	if got := second[`djstar_cycles_total{strategy="ws",session="1"}`]; got != 150 {
		t.Errorf("cycles after second scrape = %v, want 150", got)
	}
}

func TestOpenMetricsMultiSessionLabels(t *testing.T) {
	a := NewSink(SinkConfig{Strategy: "pool", Session: "0"})
	b := NewSink(SinkConfig{Strategy: "pool", Session: "1"})
	a.RecordCycle(1, 10, 1_000_000, 500_000, false, 0)
	b.RecordCycle(1, 10, 1_000_000, 500_000, false, 0)
	b.RecordCycle(2, 10, 1_000_000, 500_000, false, 0)
	samples := lintExposition(t, scrapeString(t, a, b))
	if samples[`djstar_cycles_total{strategy="pool",session="0"}`] != 1 {
		t.Error("session 0 series wrong or missing")
	}
	if samples[`djstar_cycles_total{strategy="pool",session="1"}`] != 2 {
		t.Error("session 1 series wrong or missing")
	}
}

func TestServeMetrics(t *testing.T) {
	c := NewSink(SinkConfig{Strategy: "busy"})
	c.RecordCycle(1, 10, 1_000_000, 500_000, false, 0)
	rec := httptest.NewRecorder()
	ServeMetrics(rec, c)
	resp := rec.Result()
	body, _ := io.ReadAll(resp.Body)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type = %q", ct)
	}
	lintExposition(t, string(body))
}

// maskSamples replaces every sample value with V, leaving family names,
// # HELP, # TYPE, label sets (le boundaries included) and their order.
func maskSamples(doc string) string {
	lines := strings.SplitAfter(doc, "\n")
	for i, l := range lines {
		if l == "" || strings.HasPrefix(l, "#") {
			continue
		}
		if sp := strings.LastIndexByte(l, ' '); sp >= 0 {
			lines[i] = l[:sp] + " V\n"
		}
	}
	return strings.Join(lines, "")
}

// TestMetricsDocumentGolden pins the /metrics wire format: the golden
// was captured from the internal/telemetry writer before that package
// was folded into this one, from the same recorded cycles and events.
// Regenerate with `go test ./internal/obs -run Golden -update-golden`.
func TestMetricsDocumentGolden(t *testing.T) {
	a := NewSink(SinkConfig{Strategy: "busy", Session: "0"})
	b := NewSink(SinkConfig{Strategy: "pool", Session: "s1", Shard: "2"})
	for i := 0; i < 300; i++ {
		a.RecordCycle(uint64(i+1), 100+int64(i/100), 1_200_000, 400_000, i%100 == 0, 1)
		b.RecordCycle(uint64(i+1), 100, 300_000, 150_000, false, 0)
	}
	a.RecordCycle(301, 103, 3_000_000, 2_900_000, true, 2)
	a.Event(Quarantine, 301, "n")
	a.Event(Stall, 301, "n")
	a.SetAdmissionBound(1800, 1100)
	got := maskSamples(scrapeString(t, a, b))
	golden := filepath.Join("testdata", "metrics.golden.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	if got != string(want) {
		t.Fatalf("/metrics document diverged from golden file\ngot:\n%s\nwant:\n%s", got, want)
	}
}
