package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples a reported tail percentile must have
// beyond it; a percentile with fewer is an extrapolation, not a
// measurement.
const minBeyond = 10

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs (mean of the two middles for even
// lengths), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the p-th quantile of xs (p in (0,1)) by the nearest-rank
// rule, capped at the highest rank that still has minBeyond samples
// beyond it. It also returns the percentile actually reported: below p
// when the sample count cannot support p. With minBeyond or fewer samples
// no tail percentile exists, and the median is returned as the 50th.
func tail(xs []float64, p float64) (value, pct float64) {
	n := len(xs)
	if n <= minBeyond {
		return median(xs), 50
	}
	s := sorted(xs)
	rank := int(math.Ceil(p * float64(n)))
	if rank > n-minBeyond {
		rank = n - minBeyond
	}
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], 100 * float64(rank) / float64(n)
}

// tailSlices is the number of consecutive slices sliceTail cuts a run's
// samples into.
const tailSlices = 5

// sliceTail cuts xs, in the order they were taken, into n consecutive
// slices, takes each slice's tail (see tail), and returns the median of
// the slices' tails with the lowest percentile any slice reported. A
// stall of the host that lands in one slice moves one slice's tail, not
// the figure.
func sliceTail(xs []float64, n int, p float64) (value, pct float64) {
	if len(xs) < n {
		return tail(xs, p)
	}
	vals := make([]float64, n)
	pct = 100
	for i := range vals {
		var sp float64
		vals[i], sp = tail(xs[i*len(xs)/n:(i+1)*len(xs)/n], p)
		pct = math.Min(pct, sp)
	}
	return median(vals), pct
}

// durationsMs converts durations to float milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
