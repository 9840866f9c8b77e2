// Package stats provides the measurement machinery of the evaluation
// (paper §VI): streaming summaries (mean, min, max, stddev), fixed-bin
// histograms and cumulative histograms, and percentiles. The paper
// argues that averages alone are meaningless for a real-time system and
// relies on distributions and worst cases — this package is what the
// harness uses to produce them.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates scalar observations in a single pass.
type Summary struct {
	n        int64
	mean, m2 float64 // Welford
	min, max float64
	sum      float64
}

// NewSummary returns an empty summary.
func NewSummary() *Summary {
	return &Summary{min: math.Inf(1), max: math.Inf(-1)}
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	s.sum += x
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
	if x < s.min {
		s.min = x
	}
	if x > s.max {
		s.max = x
	}
}

// Mean returns the arithmetic mean (0 if empty).
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.mean
}

// Max returns the largest observation (−Inf if empty).
func (s *Summary) Max() float64 { return s.max }

// StdDev returns the sample standard deviation (0 for n < 2).
func (s *Summary) StdDev() float64 {
	if s.n < 2 {
		return 0
	}
	return math.Sqrt(s.m2 / float64(s.n-1))
}

// String formats the summary compactly.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g min=%.4g max=%.4g sd=%.4g",
		s.n, s.Mean(), s.min, s.max, s.StdDev())
}

// Histogram counts observations into uniform bins over [Lo, Hi); values
// outside the range land in the under/overflow counters.
type Histogram struct {
	Lo, Hi    float64
	bins      []int64
	underflow int64
	overflow  int64
	total     int64
}

// NewHistogram returns a histogram with the given bin count over [lo, hi).
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if !(hi > lo) {
		return nil, fmt.Errorf("stats: invalid histogram range [%v, %v)", lo, hi)
	}
	if bins < 1 {
		return nil, fmt.Errorf("stats: bins = %d, want >= 1", bins)
	}
	return &Histogram{Lo: lo, Hi: hi, bins: make([]int64, bins)}, nil
}

// MustHistogram is NewHistogram that panics on error.
func MustHistogram(lo, hi float64, bins int) *Histogram {
	h, err := NewHistogram(lo, hi, bins)
	if err != nil {
		panic(err)
	}
	return h
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.total++
	switch {
	case x < h.Lo:
		h.underflow++
	case x >= h.Hi:
		h.overflow++
	default:
		i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.bins)))
		if i >= len(h.bins) { // guard FP edge at x ≈ Hi
			i = len(h.bins) - 1
		}
		h.bins[i]++
	}
}

// Bins returns the bin counts (do not modify).
func (h *Histogram) Bins() []int64 { return h.bins }

// Total returns the number of observations including out-of-range ones.
func (h *Histogram) Total() int64 { return h.total }

// OutOfRange returns the underflow and overflow counts.
func (h *Histogram) OutOfRange() (under, over int64) { return h.underflow, h.overflow }

// BinCenter returns the center value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.bins))
	return h.Lo + (float64(i)+0.5)*w
}

// Cumulative returns the running totals per bin (underflow included), the
// data behind the paper's Fig. 10.
func (h *Histogram) Cumulative() []int64 {
	out := make([]int64, len(h.bins))
	run := h.underflow
	for i, c := range h.bins {
		run += c
		out[i] = run
	}
	return out
}

// MaxBin returns the largest bin count (used for plot scaling).
func (h *Histogram) MaxBin() int64 {
	var m int64
	for _, c := range h.bins {
		if c > m {
			m = c
		}
	}
	return m
}

// Percentiles computes the q-quantiles (0 <= q <= 1) of a sample slice.
// The input is copied and sorted; intended for end-of-run reporting, not
// hot paths.
func Percentiles(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		return out
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for i, q := range qs {
		out[i] = SortedQuantile(sorted, q)
	}
	return out
}

// SortedQuantile is the q-quantile (0 <= q <= 1) of an ascending,
// non-empty sample slice, linearly interpolated between order
// statistics — Percentiles' estimator without the copy, for callers that
// sort in place and must not allocate.
func SortedQuantile(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
