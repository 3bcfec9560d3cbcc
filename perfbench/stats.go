package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile:
// a percentile with fewer samples beyond it is a guess about the tail,
// not a measurement of it.
const minBeyond = 10

// percentileCandidates are the percentiles a timing may be reported
// at, lowest first.
var percentileCandidates = []float64{50, 75, 90, 95, 99}

// rank is the 1-based nearest-rank position of percentile p in n
// sorted samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

// supported reports whether percentile p of n samples has at least
// minBeyond samples beyond it.
func supported(n int, p float64) bool {
	return n-rank(n, p) >= minBeyond
}

// highestPercentile returns the highest candidate percentile that n
// samples support, and false when not even the median is supported.
func highestPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range percentileCandidates {
		if supported(n, p) {
			best, ok = p, true
		}
	}
	return best, ok
}

// percentile returns the nearest-rank percentile p of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// median returns the middle of xs, averaging the two middle values of
// an even count (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// pct returns 100*a/b, 0 when b is 0.
func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
