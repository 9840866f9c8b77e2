package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Histogram is an allocation-free log-bucketed latency histogram.
// Buckets are octaves of nanoseconds split into 4 log-linear
// sub-buckets (relative error ≤ 12.5 %), with everything below 1 µs
// collapsed into the first bucket — the APC operates in the hundreds of
// microseconds, so sub-microsecond resolution is noise. Record is a
// handful of atomic adds from a single writer (the cycle thread);
// readers snapshot concurrently without locks.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	count  atomic.Uint64
	sumNS  atomic.Uint64
}

const (
	// histSubBits splits every octave into 1<<histSubBits sub-buckets.
	histSubBits = 2
	histSub     = 1 << histSubBits
	// histFloorShift collapses values below 2^histFloorShift ns (1.024 µs)
	// into bucket 0.
	histFloorShift = 10
	// histBuckets covers the scaled range up to ~68 s, far past any
	// plausible cycle time (the stall watchdog fires long before).
	histBuckets = (26-histSubBits)<<histSubBits + histSub
)

// bucketOf maps a nanosecond value to its bucket index.
func bucketOf(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	u := uint64(ns) >> histFloorShift
	if u < histSub {
		return int(u)
	}
	msb := bits.Len64(u) - 1
	sub := (u >> uint(msb-histSubBits)) & (histSub - 1)
	b := int(msb-histSubBits+1)<<histSubBits | int(sub)
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// bucketUpperNS returns the inclusive upper bound of bucket b in
// nanoseconds (the OpenMetrics `le` boundary).
func bucketUpperNS(b int) int64 {
	if b < histSub {
		return int64(b+1)<<histFloorShift - 1
	}
	msb := b>>histSubBits + histSubBits - 1
	sub := int64(b & (histSub - 1))
	// Addition, not OR: for the octave's last sub-bucket (sub+1 == histSub)
	// the sub term equals the leading bit, and the bound must carry into
	// the next octave (2<<msb), which an OR would silently drop.
	return (int64(1)<<uint(msb)+(sub+1)<<uint(msb-histSubBits))<<histFloorShift - 1
}

// RecordNS adds one nanosecond observation. Allocation-free; safe for a
// single writer with concurrent readers.
func (h *Histogram) RecordNS(ns int64) {
	h.counts[bucketOf(ns)].Add(1)
	h.count.Add(1)
	if ns > 0 {
		h.sumNS.Add(uint64(ns))
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// SumSeconds returns the sum of all observations in seconds.
func (h *Histogram) SumSeconds() float64 { return float64(h.sumNS.Load()) / 1e9 }

// HistogramBucket is one cumulative exposition bucket.
type HistogramBucket struct {
	// UpperSeconds is the bucket's inclusive upper bound (`le`) in
	// seconds; +Inf for the final bucket.
	UpperSeconds float64 `json:"le"`
	// CumulativeCount counts observations ≤ UpperSeconds.
	CumulativeCount uint64 `json:"count"`
}

// Buckets returns the cumulative buckets up to and including the highest
// populated one, followed by the +Inf bucket — the OpenMetrics histogram
// shape. Snapshot path: allocates.
func (h *Histogram) Buckets() []HistogramBucket {
	highest := -1
	var raw [histBuckets]uint64
	for i := range raw {
		raw[i] = h.counts[i].Load()
		if raw[i] > 0 {
			highest = i
		}
	}
	out := make([]HistogramBucket, 0, highest+2)
	var cum uint64
	for i := 0; i <= highest; i++ {
		cum += raw[i]
		out = append(out, HistogramBucket{
			UpperSeconds:    float64(bucketUpperNS(i)) / 1e9,
			CumulativeCount: cum,
		})
	}
	out = append(out, HistogramBucket{
		UpperSeconds:    math.Inf(1),
		CumulativeCount: h.count.Load(),
	})
	return out
}
