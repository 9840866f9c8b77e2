package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	s := NewSummary()
	if s.Mean() != 0 || s.StdDev() != 0 || s.n != 0 {
		t.Fatal("empty summary not zeroed")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.n != 8 || s.sum != 40 {
		t.Fatalf("n=%d sum=%v", s.n, s.sum)
	}
	if s.Mean() != 5 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if s.min != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %v/%v", s.min, s.Max())
	}
	// Sample stddev of this classic set: sqrt(32/7).
	want := math.Sqrt(32.0 / 7)
	if math.Abs(s.StdDev()-want) > 1e-12 {
		t.Fatalf("sd = %v, want %v", s.StdDev(), want)
	}
	if !strings.Contains(s.String(), "n=8") {
		t.Fatal("String missing n")
	}
}

func TestSummaryMatchesNaiveProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				xs = append(xs, x)
			}
		}
		if len(xs) < 2 {
			return true
		}
		s := NewSummary()
		sum := 0.0
		for _, x := range xs {
			s.Add(x)
			sum += x
		}
		mean := sum / float64(len(xs))
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		sd := math.Sqrt(ss / float64(len(xs)-1))
		return math.Abs(s.Mean()-mean) < 1e-6 && math.Abs(s.StdDev()-sd) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBinning(t *testing.T) {
	h := MustHistogram(0, 10, 10)
	h.Add(-1)   // underflow
	h.Add(0)    // bin 0
	h.Add(5.5)  // bin 5
	h.Add(9.99) // bin 9
	h.Add(10)   // overflow
	h.Add(25)   // overflow
	if h.Total() != 6 {
		t.Fatalf("total = %d", h.Total())
	}
	u, o := h.OutOfRange()
	if u != 1 || o != 2 {
		t.Fatalf("under/over = %d/%d", u, o)
	}
	bins := h.Bins()
	if bins[0] != 1 || bins[5] != 1 || bins[9] != 1 {
		t.Fatalf("bins = %v", bins)
	}
	if c := h.BinCenter(5); c != 5.5 {
		t.Fatalf("BinCenter(5) = %v", c)
	}
	if h.MaxBin() != 1 {
		t.Fatalf("MaxBin = %d", h.MaxBin())
	}
}

func TestHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(5, 5, 10); err == nil {
		t.Fatal("empty range accepted")
	}
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Fatal("0 bins accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustHistogram did not panic")
		}
	}()
	MustHistogram(1, 0, 5)
}

func TestHistogramCumulative(t *testing.T) {
	h := MustHistogram(0, 4, 4)
	for _, x := range []float64{-1, 0.5, 1.5, 1.6, 3.5} {
		h.Add(x)
	}
	cum := h.Cumulative()
	want := []int64{2, 4, 4, 5} // underflow counts into the first bin
	for i := range want {
		if cum[i] != want[i] {
			t.Fatalf("cumulative = %v, want %v", cum, want)
		}
	}
}

func TestHistogramCountsSumProperty(t *testing.T) {
	f := func(xs []float64) bool {
		h := MustHistogram(-100, 100, 37)
		clean := 0
		for _, x := range xs {
			if math.IsNaN(x) {
				continue
			}
			h.Add(x)
			clean++
		}
		var sum int64
		for _, c := range h.Bins() {
			sum += c
		}
		u, o := h.OutOfRange()
		return sum+u+o == int64(clean) && h.Total() == int64(clean)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	ps := Percentiles(xs, 0, 0.5, 1)
	if ps[0] != 1 || ps[1] != 3 || ps[2] != 5 {
		t.Fatalf("percentiles = %v", ps)
	}
	// Interpolation: p25 of 1..5 = 2.
	if p := Percentiles(xs, 0.25)[0]; p != 2 {
		t.Fatalf("p25 = %v", p)
	}
	if p := Percentiles(nil, 0.5); p[0] != 0 {
		t.Fatalf("empty percentiles = %v", p)
	}
	// Out-of-range q clamps.
	if p := Percentiles(xs, -1, 2); p[0] != 1 || p[1] != 5 {
		t.Fatalf("clamped = %v", p)
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Fatal("Percentiles mutated input")
	}
}

func TestRenderHistogram(t *testing.T) {
	h := MustHistogram(0, 1, 4)
	for i := 0; i < 10; i++ {
		h.Add(0.3)
	}
	h.Add(2)
	out := RenderHistogram(h, "test", 20)
	if !strings.Contains(out, "test (n=11)") {
		t.Fatalf("missing title: %q", out)
	}
	if !strings.Contains(out, "####") {
		t.Fatal("missing bars")
	}
	if !strings.Contains(out, "out of range") {
		t.Fatal("missing overflow note")
	}
	// Tiny width is clamped, not broken.
	if RenderHistogram(h, "t", 1) == "" {
		t.Fatal("empty render")
	}
	// Empty histogram renders without dividing by zero.
	if RenderHistogram(MustHistogram(0, 1, 2), "e", 20) == "" {
		t.Fatal("empty histogram render failed")
	}
}

func TestRenderCumulative(t *testing.T) {
	h := MustHistogram(0, 1, 2)
	h.Add(0.1)
	h.Add(0.9)
	out := RenderCumulative(h, "c", 20)
	if !strings.Contains(out, "100.0%") {
		t.Fatalf("missing 100%%: %q", out)
	}
	if !strings.Contains(out, "50.0%") {
		t.Fatalf("missing 50%%: %q", out)
	}
}

func TestRenderGantt(t *testing.T) {
	tasks := []GanttTask{
		{Name: "a", Worker: 0, Start: 0, End: 10},
		{Name: "b", Worker: 1, Start: 5, End: 15},
		{Name: "c", Worker: 0, Start: 12, End: 20},
	}
	out := RenderGantt(tasks, "sched", 40)
	if !strings.Contains(out, "T0") || !strings.Contains(out, "T1") {
		t.Fatalf("missing worker rows: %q", out)
	}
	if !strings.Contains(out, "#") {
		t.Fatal("missing bars")
	}
	if !strings.Contains(out, ".") {
		t.Fatal("missing waiting gap")
	}
	// Degenerate inputs.
	if RenderGantt(nil, "empty", 40) == "" {
		t.Fatal("empty gantt failed")
	}
}

func TestRenderProfile(t *testing.T) {
	out := RenderProfile([]int{1, 3, 2, 1}, "prof", 3)
	if !strings.Contains(out, "peak 3") {
		t.Fatalf("missing peak: %q", out)
	}
	if !strings.Contains(out, "#") {
		t.Fatal("missing columns")
	}
	if RenderProfile(nil, "empty", 3) == "" {
		t.Fatal("empty profile failed")
	}
}

func TestRenderTable(t *testing.T) {
	out := RenderTable([]string{"strategy", "ms"}, [][]string{
		{"busy", "0.45"},
		{"sleep", "0.47"},
	})
	if !strings.Contains(out, "strategy") || !strings.Contains(out, "busy") {
		t.Fatalf("table missing content: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4", len(lines))
	}
}
