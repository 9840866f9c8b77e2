package exp

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"djstar/internal/engine"
	"djstar/internal/obs"
	"djstar/internal/sched"
)

// quickOpts returns small but meaningful settings for tests.
func quickOpts(buf *bytes.Buffer) Options {
	o := Quick(buf)
	o.Cycles = 120
	return o
}

// multicore reports whether wall-clock speedup assertions make sense on
// this host. On a single-core machine the parallel strategies measure
// scheduling overhead, not speedup (see EXPERIMENTS.md).
func multicore() bool { return runtime.NumCPU() >= 4 }

func TestCalibSingleton(t *testing.T) {
	a := Calib()
	b := Calib()
	if a != b {
		t.Fatal("Calib not cached")
	}
	if a.NanosPerUnit <= 0 {
		t.Fatalf("calibration %v", a)
	}
}

func TestTable1Shape(t *testing.T) {
	var buf bytes.Buffer
	res, err := Table1(quickOpts(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if res.SeqMeanMS <= 0 {
		t.Fatalf("seq mean %v", res.SeqMeanMS)
	}
	if len(res.Threads) != 4 {
		t.Fatalf("threads %v", res.Threads)
	}
	for _, name := range ParallelStrategies {
		if len(res.MeanMS[name]) != 4 {
			t.Fatalf("%s has %d cells", name, len(res.MeanMS[name]))
		}
		for i, v := range res.MeanMS[name] {
			if v <= 0 {
				t.Fatalf("%s cell %d = %v", name, i, v)
			}
		}
	}
	out := buf.String()
	if !strings.Contains(out, "Table I") || !strings.Contains(out, "BUSY") {
		t.Fatalf("report missing content:\n%s", out)
	}
	if multicore() {
		if sp := res.Speedup(sched.NameBusyWait, 4); sp < 1.2 {
			t.Errorf("BUSY 4-thread speedup %.2f < 1.2 on a %d-core host",
				sp, runtime.NumCPU())
		}
	}
	if res.Speedup("nope", 4) != 0 || res.Speedup(sched.NameBusyWait, 99) != 0 {
		t.Fatal("Speedup of unknown cell should be 0")
	}
}

func TestFig8Report(t *testing.T) {
	var buf bytes.Buffer
	o := quickOpts(&buf)
	o.Cycles = 60
	res, err := Fig8(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table == nil {
		t.Fatal("missing table")
	}
	if !strings.Contains(buf.String(), "speedup") {
		t.Fatal("report missing speedup")
	}
}

func TestFig9AndFig10(t *testing.T) {
	var buf bytes.Buffer
	res, err := Fig9(quickOpts(&buf))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range ParallelStrategies {
		h := res.Hist[name]
		if h == nil || h.Total() != 120 {
			t.Fatalf("%s histogram incomplete", name)
		}
		if len(res.Samples[name]) != 120 {
			t.Fatalf("%s has %d samples", name, len(res.Samples[name]))
		}
	}
	if !strings.Contains(buf.String(), "Fig. 9") {
		t.Fatal("missing title")
	}

	buf.Reset()
	res10, err := Fig10(quickOpts(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(res10.Hist) != 3 || !strings.Contains(buf.String(), "cumulative") {
		t.Fatal("Fig10 incomplete")
	}
}

func TestFig11TracesAllStrategies(t *testing.T) {
	var buf bytes.Buffer
	o := quickOpts(&buf)
	o.Cycles = 40
	res, err := Fig11(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range ParallelStrategies {
		evs := res.Events[name]
		if len(evs) != 67 {
			t.Fatalf("%s traced %d events, want 67", name, len(evs))
		}
		if res.MakespanUS[name] <= 0 {
			t.Fatalf("%s makespan %v", name, res.MakespanUS[name])
		}
	}
	if !strings.Contains(buf.String(), "schedule realization") {
		t.Fatal("missing gantt")
	}
}

// TestFig4Numbers holds the invariants of the §IV analysis on measured
// durations. The figures themselves — 295 µs critical path, 33
// processors, 324 µs on 4 cores — are pinned deterministically on the
// static cost table in rescon_test.go; the bands a measured run should
// land in are wall-clock assertions and live behind the perf tag
// (TestFig4MeasuredBands).
func TestFig4Numbers(t *testing.T) {
	var buf bytes.Buffer
	o := Quick(&buf)
	o.Cycles = 200
	o.Scale = 1.0 // node durations must be at paper scale for §IV numbers
	res, err := Fig4(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.FourCoreUS < res.CriticalPathUS {
		t.Error("4-core makespan beats critical path")
	}
	if len(res.Profile) != 100 {
		t.Fatalf("profile %d samples", len(res.Profile))
	}
	if !strings.Contains(buf.String(), "concurrency profile") {
		t.Fatal("missing profile render")
	}
}

func TestFig12Numbers(t *testing.T) {
	var buf bytes.Buffer
	o := Quick(&buf)
	o.Cycles = 150
	o.Scale = 1.0
	res, err := Fig12(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.SimBusyUS < res.OptimalUS {
		t.Error("simulated BUSY beats optimal")
	}
	// Paper: BUSY simulation within 8 % of optimal.
	if res.SimBusyUS > res.OptimalUS*1.3 {
		t.Errorf("sim BUSY %v too far above optimal %v", res.SimBusyUS, res.OptimalUS)
	}
	if res.SimSleepUS <= res.SimBusyUS {
		t.Error("simulated SLEEP not slower than BUSY")
	}
	if res.MeasuredBusyUS < res.SimBusyUS {
		// Measured includes thread management; paper: 452 vs 327 µs. On a
		// single-core host this holds trivially.
		t.Errorf("measured BUSY %v below simulation %v", res.MeasuredBusyUS, res.SimBusyUS)
	}
	if res.Efficiency <= 0 || res.Efficiency > 1.001 {
		t.Errorf("efficiency %v", res.Efficiency)
	}
}

func TestDeadlines(t *testing.T) {
	var buf bytes.Buffer
	res, err := Deadlines(quickOpts(&buf))
	if err != nil {
		t.Fatal(err)
	}
	want := append([]string{sched.NameSequential}, ParallelStrategies...)
	if len(res.Rows) != len(want) {
		t.Fatalf("%d rows, want %v", len(res.Rows), want)
	}
	for i, r := range res.Rows {
		if r.Strategy != want[i] {
			t.Fatalf("row %d is %q, want %q", i, r.Strategy, want[i])
		}
		if r.Cycles != 120 || len(r.Samples) != 120 {
			t.Fatalf("%s: %d cycles, %d samples, want 120", r.Strategy, r.Cycles, len(r.Samples))
		}
		// One window: the miss count is the samples over the deadline.
		above := uint64(0)
		for _, ms := range r.Samples {
			if ms > engine.DeadlineMS {
				above++
			}
		}
		if r.Misses != above {
			t.Errorf("%s: %d misses, %d samples above %.3f ms", r.Strategy, r.Misses, above, engine.DeadlineMS)
		}
		if got := float64(r.Misses) / float64(r.Cycles) * 1e4; r.MissesPer10k != got {
			t.Errorf("%s: %v per 10k, want %v", r.Strategy, r.MissesPer10k, got)
		}
		if r.WithinBudget != (r.MissesPer10k <= obs.SLOConfig{}.WithDefaults().TargetPer10k) {
			t.Errorf("%s: budget verdict %v at %v per 10k", r.Strategy, r.WithinBudget, r.MissesPer10k)
		}
		if !(0 < r.P50MS && r.P50MS <= r.P99MS && r.P99MS <= r.P999MS && r.P999MS <= r.WorstMS) {
			t.Errorf("%s: quantiles out of order: p50 %v p99 %v p99.9 %v worst %v",
				r.Strategy, r.P50MS, r.P99MS, r.P999MS, r.WorstMS)
		}
		if r.WorstMS != r.Samples[len(r.Samples)-1] {
			t.Errorf("%s: worst %v, largest sample %v", r.Strategy, r.WorstMS, r.Samples[len(r.Samples)-1])
		}
	}
	for _, col := range []string{"deadline", "per 10k", "budget", "p50 ms", "p99 ms", "p99.9 ms"} {
		if !strings.Contains(buf.String(), col) {
			t.Fatalf("report lacks %q:\n%s", col, buf.String())
		}
	}
}

func TestProfileSharesAtPaperScale(t *testing.T) {
	var buf bytes.Buffer
	o := Quick(&buf)
	o.Cycles = 150
	o.Scale = 1.0
	res, err := Profile(o)
	if err != nil {
		t.Fatal(err)
	}
	// We follow the paper's §VI decomposition: TP+GP+VC ≈ 0.8 ms with the
	// sequential graph at ~1.1-1.3 ms, i.e. graph ≈ 60 % of the APC, TP
	// ≈ 10 %, GP ≈ 20 %, VC ≈ 8 %. (The §III-B percentages — 38 % graph,
	// 16 % timecode — are inconsistent with §VI's own numbers; see
	// EXPERIMENTS.md E9.)
	checks := []struct {
		comp   string
		lo, hi float64
	}{
		{"tp", 6, 16},
		{"gp", 13, 30},
		{"graph", 48, 72},
		{"vc", 4, 14},
	}
	for _, c := range checks {
		got := res.Share(c.comp)
		if got < c.lo || got > c.hi {
			t.Errorf("%s share %.1f%%, want in [%v, %v]", c.comp, got, c.lo, c.hi)
		}
	}
	if res.Share("bogus") != 0 {
		t.Fatal("unknown component share")
	}
	sum := res.TPMS + res.GPMS + res.GraphMS + res.VCMS
	if sum > res.APCMS*1.05 || sum < res.APCMS*0.9 {
		t.Errorf("components %v don't sum to APC %v", sum, res.APCMS)
	}
}

func TestThreadSweep(t *testing.T) {
	var buf bytes.Buffer
	o := quickOpts(&buf)
	o.Cycles = 40
	res, err := ThreadSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Threads) != 8 || len(res.MeanMS) != 8 {
		t.Fatalf("sweep size %d", len(res.Threads))
	}
	if !strings.Contains(buf.String(), "thread sweep") {
		t.Fatal("missing report")
	}
}

func TestAblation(t *testing.T) {
	var buf bytes.Buffer
	o := quickOpts(&buf)
	o.Cycles = 60
	res, err := Ablation(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MeanMS) != 5 {
		t.Fatalf("variants %d", len(res.MeanMS))
	}
	for name, v := range res.MeanMS {
		if v <= 0 {
			t.Fatalf("%s mean %v", name, v)
		}
	}
	if !strings.Contains(buf.String(), "scheduling design") {
		t.Fatal("missing report")
	}
}

func TestStaticVsOnline(t *testing.T) {
	var buf bytes.Buffer
	o := quickOpts(&buf)
	o.Cycles = 60
	res, err := StaticVsOnline(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.StaticMS <= 0 || res.BusyMS <= 0 || res.WSMS <= 0 {
		t.Fatalf("non-positive means: %+v", res)
	}
	if !strings.Contains(buf.String(), "offline") {
		t.Fatal("missing report")
	}
}

func TestOptionsNormalize(t *testing.T) {
	o := Options{}
	o.normalize()
	if o.Cycles != 10000 || o.MaxThreads != 4 || o.Out == nil || o.TrackBars != 16 {
		t.Fatalf("normalize gave %+v", o)
	}
	neg := Options{Scale: -3}
	neg.normalize()
	if neg.Scale != 0 {
		t.Fatal("negative scale not clamped")
	}
}

func TestDefaultsSettings(t *testing.T) {
	var buf bytes.Buffer
	o := Defaults(&buf)
	if o.Cycles != 10000 || o.Scale != 1.0 || o.MaxThreads != 4 || o.Out == nil {
		t.Fatalf("Defaults = %+v", o)
	}
}

func TestDesignSpace(t *testing.T) {
	var buf bytes.Buffer
	o := Quick(&buf)
	o.Cycles = 150
	o.Scale = 1.0
	res, err := DesignSpace(o)
	if err != nil {
		t.Fatal(err)
	}
	// The chosen approach fits the deadline...
	if res.TaskLatencyUS > res.DeadlineUS {
		t.Errorf("task scheduling latency %v exceeds deadline %v",
			res.TaskLatencyUS, res.DeadlineUS)
	}
	// ...and both rejected approaches have worse per-packet latency, with
	// data parallelism necessarily missing the deadline (arrival wait).
	if res.Pipeline.LatencyUS <= res.TaskLatencyUS {
		t.Errorf("pipeline latency %v not above task scheduling %v",
			res.Pipeline.LatencyUS, res.TaskLatencyUS)
	}
	if res.DataParallel2.LatencyUS <= res.DeadlineUS {
		t.Errorf("batch-2 latency %v should exceed one packet period %v",
			res.DataParallel2.LatencyUS, res.DeadlineUS)
	}
	if res.DataParallel4.LatencyUS <= res.DataParallel2.LatencyUS {
		t.Errorf("batch-4 latency %v not above batch-2 %v",
			res.DataParallel4.LatencyUS, res.DataParallel2.LatencyUS)
	}
	if !strings.Contains(buf.String(), "design space") {
		t.Fatal("missing report")
	}
}

func TestNodeCostsAudit(t *testing.T) {
	var buf bytes.Buffer
	o := Quick(&buf)
	o.Cycles = 200
	o.Scale = 1.0
	res, err := NodeCosts(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Names) != 67 || len(res.MeasuredUS) != 67 {
		t.Fatalf("audit covers %d nodes", len(res.Names))
	}
	// Top-up loads keep measured costs near targets; generous bound for a
	// noisy shared host.
	if res.MeanAbsErrPct > 60 {
		t.Errorf("mean deviation %.1f%%, calibration badly off", res.MeanAbsErrPct)
	}
	if !strings.Contains(buf.String(), "node cost audit") {
		t.Fatal("missing report")
	}
}

func TestWriteSamplesCSV(t *testing.T) {
	var buf bytes.Buffer
	samples := map[string][]float64{
		"busy":  {1, 2, 3},
		"sleep": {4, 5},
	}
	if err := WriteSamplesCSV(&buf, samples, []string{"busy", "sleep"}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("csv has %d lines, want 4", len(lines))
	}
	if lines[0] != "busy,sleep" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[3] != "3," {
		t.Fatalf("short column not padded: %q", lines[3])
	}
}

func TestWriteTable1CSV(t *testing.T) {
	res := &Table1Result{
		SeqMeanMS: 1.1,
		Threads:   []int{1, 2},
		MeanMS: map[string][]float64{
			"busy": {1.0, 0.6}, "sleep": {1.1, 0.7}, "ws": {1.2, 0.8},
		},
	}
	var buf bytes.Buffer
	if err := WriteTable1CSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"strategy", "threads_1_ms", "seq,1.1", "busy,1,0.6"} {
		if !strings.Contains(out, want) {
			t.Fatalf("csv missing %q:\n%s", want, out)
		}
	}
}
