package main

import (
	"math"
	"regexp"
	"testing"

	"djstar/internal/engine"
)

// toyParams sizes a run for the smoke test: at most 200 cycles and 20
// requests, one-bar tracks, one set-up, a hundredth of the layer suite.
func toyParams(workload string, trace bool, outDir string) params {
	p := fullParams(workload, 7, 0.1, trace)
	p.bars, p.warm, p.hashed, p.setupReps = 1, 20, 20, 1
	p.maxCycles, p.reqRate, p.probe, p.outDir = 200, 200, 0.01, outDir
	return p
}

// TestEveryMetricEmitted runs every workload at toy length, untraced
// and traced, and checks structure only: exactly the metrics
// BENCHMARK.json declares, with the declared units, and no failed
// operation. It asserts nothing about time.
func TestEveryMetricEmitted(t *testing.T) {
	m, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	endToEnd, perLayer := map[string]string{}, map[string]string{}
	for _, e := range m.EndToEnd {
		endToEnd[e.Name] = e.Unit
	}
	for _, l := range m.PerLayer {
		perLayer[l.Name] = l.Unit
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	dir := t.TempDir()
	for i, w := range m.Workloads {
		if w.Name != workloadNames[i] {
			t.Fatalf("BENCHMARK.json workload %d is %q, the program has %q", i, w.Name, workloadNames[i])
		}
		for _, c := range []struct {
			trace bool
			want  map[string]string
		}{{false, endToEnd}, {true, perLayer}} {
			out, err := runWorkload(toyParams(w.Name, c.trace, dir))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, c.trace, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, c.trace, out.Correct, out.Attempted, out.Failed)
			}
			for name, got := range out.Metrics {
				unit, declared := c.want[name]
				switch {
				case !nameRE.MatchString(name):
					t.Errorf("%s: metric name %q is not [A-Za-z0-9_.-]+", w.Name, name)
				case !declared:
					t.Errorf("%s trace=%v: emits %q, which BENCHMARK.json does not declare", w.Name, c.trace, name)
				case got.Unit != unit:
					t.Errorf("%s: %s has unit %q, declared %q", w.Name, name, got.Unit, unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: %s = %v", w.Name, name, got.Value)
				}
			}
			for name := range c.want {
				if _, ok := out.Metrics[name]; !ok {
					t.Errorf("%s trace=%v: declared metric %q not emitted", w.Name, c.trace, name)
				}
			}
		}
	}
}

// TestCycleSelfTimesSumToDuration checks the trace arithmetic: a
// sampled cycle's stage children plus its own self time (the spine)
// account for exactly the bench-timed duration.
func TestCycleSelfTimesSumToDuration(t *testing.T) {
	tr := newTracer(16)
	ci := engine.CycleInfo{Cycle: 9, TPMS: 0.010, GPMS: 0.020, GraphMS: 0.070, VCMS: 0.001, APCMS: 0.101}
	cycleSpan(tr, -1, 0, 1000, 101500, ci)
	spans := tr.recorded()
	if len(spans) != 5 {
		t.Fatalf("%d spans, want the cycle and four stages", len(spans))
	}
	self := selfTimes(spans)
	sum := int64(0)
	for _, s := range self {
		sum += s
	}
	if sum != spans[0].Dur {
		t.Errorf("self times sum to %d ns, cycle lasted %d ns", sum, spans[0].Dur)
	}
	if want := int64(101500 - 101000); self[0] != want {
		t.Errorf("spine self time %d ns, want %d", self[0], want)
	}
}

// TestQuartileSpreadMatchesPython pins the spread to what
// statistics.quantiles([1..10], n=4) gives: [2.75, 5.5, 8.25].
func TestQuartileSpreadMatchesPython(t *testing.T) {
	v := []float64{3, 1, 2, 10, 9, 8, 4, 5, 6, 7}
	if got := quartileSpread(v); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread %v, want (8.25-2.75)/5.5 = 1", got)
	}
}
