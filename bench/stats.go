package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending-sorted sample: the smallest value with at least p% of the
// sample at or below it. An empty sample yields 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := rankOf(p, len(sorted))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// rankOf is the 1-based nearest rank of the p-th percentile among n sorted
// values. The small tolerance keeps 90% of 100 at rank 90 although the
// product is not exact in floating point.
func rankOf(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// median is percentile(50) of an unsorted sample; it sorts a copy.
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// tailPercentiles are the candidates for "the highest percentile that has
// at least ten samples beyond it".
var tailPercentiles = []float64{50, 90, 99, 99.9, 99.99}

// highestResolved returns the largest of tailPercentiles with at least ten
// samples beyond it in a sample of n, or 0 when even the median has fewer.
func highestResolved(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if n-rankOf(p, n) >= 10 {
			best = p
		}
	}
	return best
}

// quartileSpread is the distance between the first and third quartile of
// the values as a share of their median, with the quartiles Python's
// statistics.quantiles(values, n=4) yields (the exclusive method), so the
// number printed here is the number the driver computes.
func quartileSpread(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	q := func(k int) float64 {
		j, delta := k*(n+1)/4, k*(n+1)%4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// ms and us convert durations to the float units metrics are reported in.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sample is a latency sample being collected; values are in the unit the
// metric is reported in.
type sample struct{ v []float64 }

func (s *sample) add(x float64) { s.v = append(s.v, x) }
func (s *sample) n() int        { return len(s.v) }

// sorted returns the values ascending (sorting in place).
func (s *sample) sorted() []float64 {
	sort.Float64s(s.v)
	return s.v
}

func (s *sample) p(p float64) float64 { return percentile(s.sorted(), p) }
