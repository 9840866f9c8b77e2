package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// pct returns the q-quantile (0..1) of an ascending slice by nearest
// rank, so p99 of n samples always has n/100 samples beyond it. An
// empty slice gives 0.
func pct(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(asc)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(asc) {
		i = len(asc) - 1
	}
	return asc[i]
}

// median returns the middle value of v (mean of the two middle values
// for an even count).
func median(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartileSpread is (Q3 − Q1) / median with the quartiles computed the
// way Python's statistics.quantiles(v, n=4) does (exclusive method) —
// the repeatability figure the acceptance procedure holds against each
// metric's bound. Fewer than two values give 0.
func quartileSpread(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	med := median(s)
	if n < 2 || med == 0 {
		return 0
	}
	quart := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quart(3) - quart(1)) / math.Abs(med)
}

// fnv64 folds the bit patterns of buf into h (FNV-1a over float64
// words) — the audio fingerprint the correctness gate compares.
func fnv64(h uint64, buf []float64) uint64 {
	const prime = 1099511628211
	for _, x := range buf {
		h ^= math.Float64bits(x)
		h *= prime
	}
	return h
}

const fnvOffset = 14695981039346656037
