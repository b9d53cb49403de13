package main

import (
	"math"
	"sort"
	"time"
)

// tailCandidates are the percentiles a tail may be reported at, in parts
// per million so rank arithmetic stays exact.
var tailCandidates = []int64{500_000, 900_000, 990_000, 999_000, 999_900}

// rank returns the 1-based nearest-rank position of the ppm-th
// percentile among n samples.
func rank(n int, ppm int64) int {
	r := int((ppm*int64(n) + 999_999) / 1_000_000)
	return min(max(r, 1), n)
}

// tailPercentile returns the highest candidate percentile (as a
// percentage) that has at least ten samples beyond it among n, and false
// when even the median has fewer.
func tailPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, ppm := range tailCandidates {
		if n-rank(n, ppm) >= 10 {
			best, ok = float64(ppm)/10_000, true
		}
	}
	return best, ok
}

// percentile returns the nearest-rank p-th percentile (p in percent) of
// sorted, or NaN when it is empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), int64(math.Round(p*10_000)))-1]
}

// median returns the middle of xs (the mean of the two middle values for
// an even count), or NaN when xs is empty. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
