package exp

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"djstar/internal/engine"
	"djstar/internal/graph"
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

// TestCellsShareDeckTracks builds two cells' sessions from one Options,
// as runEngine and timeGraph do: every deck plays the same *synth.Track
// in both, rendered once for the process, and a different length gets
// its own set.
func TestCellsShareDeckTracks(t *testing.T) {
	o := quickOpts(new(bytes.Buffer))
	o.TrackBars = 2
	var sessions [2]*graph.Session
	for i := range sessions {
		s, _, err := graph.BuildDJStar(o.graphConfig())
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
	}
	for d, dk := range sessions[0].Decks {
		a, b := dk.Track(), sessions[1].Decks[d].Track()
		if a == nil || a != b {
			t.Fatalf("deck %d: cells play tracks %p and %p, want one shared track", d, a, b)
		}
		if a != deckTracks(o.TrackBars)[d] {
			t.Fatalf("deck %d: cell track is not the process-wide one", d)
		}
	}
	if deckTracks(3)[0] == deckTracks(2)[0] {
		t.Fatal("tracks of 3 bars and of 2 bars are one track")
	}
}

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
		trace := res.Traces[name]
		if len(trace.Worker) != 67 {
			t.Fatalf("%s traced %d nodes, want 67", name, len(trace.Worker))
		}
		if trace.MakespanNS() <= 0 {
			t.Fatalf("%s makespan %v ns", name, trace.MakespanNS())
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
	// E1's design-cost column: the graph's shape alone fixes the peak.
	if d := res.Design; d.PeakConcurrency != 33 || d.CriticalPathUS > d.ListUS[4] {
		t.Errorf("design costs: peak concurrency %d (want 33), critical path %v vs 4-core %v",
			d.PeakConcurrency, d.CriticalPathUS, d.ListUS[4])
	}
	// E3's simulated curve, under either cost table: one processor does
	// the total work, and more processors never lengthen the schedule.
	for name, c := range map[string]Fig4Costs{"design": res.Design, "measured": res.Measured} {
		if math.Abs(c.ListUS[1]-c.SequentialUS) > 1e-9*c.SequentialUS {
			t.Errorf("%s: 1-processor makespan %v, total work %v", name, c.ListUS[1], c.SequentialUS)
		}
		for i := 1; i < len(fig4Procs); i++ {
			if p, q := fig4Procs[i-1], fig4Procs[i]; c.ListUS[q] > c.ListUS[p] {
				t.Errorf("%s: %d-processor makespan %v above %d-processor %v", name, q, c.ListUS[q], p, c.ListUS[p])
			}
		}
		if c.ListUS[4] < c.CriticalPathUS {
			t.Errorf("%s: 4-core makespan %v beats critical path %v", name, c.ListUS[4], c.CriticalPathUS)
		}
	}
	if len(res.Measured.Profile) != 100 {
		t.Fatalf("profile %d samples", len(res.Measured.Profile))
	}
	for _, want := range []string{"concurrency profile", "design costs", "list schedule 8 procs"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("report lacks %q:\n%s", want, buf.String())
		}
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
		// The optimum includes the overhead-free BUSY deal, which the
		// simulation with per-entry overheads can only lengthen.
		t.Error("simulated BUSY beats optimal")
	}
	// Paper: BUSY simulation within 8 % of optimal.
	if res.SimBusyUS > res.OptimalUS*1.3 {
		t.Errorf("sim BUSY %v too far above optimal %v", res.SimBusyUS, res.OptimalUS)
	}
	if res.SimSleepUS <= res.SimBusyUS {
		t.Error("simulated SLEEP not slower than BUSY")
	}
	// Measured vs simulated BUSY is wall-clock: TestFig12MeasuredAboveSimulation (perf tag).
	if res.Efficiency <= 0 || res.Efficiency > 1.001 {
		t.Errorf("efficiency %v", res.Efficiency)
	}
	gantt := fmt.Sprintf("Fig. 12: simulated BUSY schedule (µs) (makespan %.1f, 4 workers)", res.SimBusyUS)
	if !strings.Contains(buf.String(), gantt) {
		t.Errorf("report lacks the simulated-BUSY Gantt %q:\n%s", gantt, buf.String())
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
	// Each component's share of the APC is a wall-clock claim:
	// TestProfileSharesCalibration (perf tag) asserts the paper's bands.
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
	// How close measured costs come to their targets is a wall-clock
	// claim: TestNodeCostsCalibration (perf tag) asserts it.
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
