package main

import (
	"math"
	"sort"
)

// rank is the 1-based nearest-rank position of percentile p (0 < p <= 100)
// in a sorted sample of n values.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond is how many of n values lie past percentile p.
func beyond(n int, p float64) int { return n - rank(n, p) }

// minBeyond is how many values must lie past a reported percentile.
const minBeyond = 10

// highestPercentile returns the highest of the candidate percentiles
// (given in descending order) that has at least minBeyond of n values
// beyond it, and false when none has.
func highestPercentile(n int, candidates []float64) (float64, bool) {
	for _, p := range candidates {
		if beyond(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank percentile p of xs, sorting xs in
// place. xs must not be empty.
func percentile(xs []float64, p float64) float64 {
	sort.Float64s(xs)
	return xs[rank(len(xs), p)-1]
}

// median returns the median of xs (the mean of the middle pair for an
// even count), sorting xs in place. xs must not be empty.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// Latency percentiles are taken per window of consecutive samples and
// reported as the median across windows, so one stall (a collection,
// a descheduled thread) moves one window, not the run's figure.
const (
	windowMin  = 1000 // samples per window: p99 keeps minBeyond beyond it
	maxWindows = 16
)

// windowed splits xs (in time order) into consecutive windows of at
// least windowMin values, takes percentile p of each and returns the
// median across windows. xs must hold at least one value.
func windowed(xs []float64, p float64) float64 {
	k := max(1, min(len(xs)/windowMin, maxWindows))
	per := make([]float64, k)
	for i := range per {
		per[i] = percentile(append([]float64(nil), xs[i*len(xs)/k:(i+1)*len(xs)/k]...), p)
	}
	return median(per)
}
