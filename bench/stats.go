package main

import (
	"fmt"
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (NaN for none).
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

// quartiles returns the first and third quartiles of xs by the method
// Python's statistics.quantiles(xs, n=4) uses (the "exclusive" method), so
// spreads printed here match the ones computed from the benchmark's JSON
// lines. With fewer than two values both quartiles are the value itself.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs. It
// refuses a percentile with fewer than ten samples beyond it, the rule for
// reporting a tail: a p90 needs at least 100 samples, a p99 at least 1000.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	// k is the 1-based nearest rank; the slack keeps p*n from rounding up
	// past an exact rank (0.9*100 must be rank 90, not 91).
	k := max(int(math.Ceil(p*float64(n)-1e-9)), 1)
	if beyond := n - k; beyond < 10 {
		return 0, fmt.Errorf("p%g of %d samples has %d samples beyond it; need at least 10", 100*p, n, beyond)
	}
	return sorted(xs)[k-1], nil
}

// mean returns the arithmetic mean of xs (NaN for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
