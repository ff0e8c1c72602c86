package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a tail percentile before it
// is reported: a p90 over fewer than 100 samples is decided by fewer than
// ten operations and says little about the tail.
const minBeyond = 10

// percentile returns the p-quantile (0 < p < 1) of xs by the nearest-rank
// rule. The median is always reported; a tail percentile (p > 0.5) is
// refused when fewer than minBeyond samples lie beyond it.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile p%g of no samples", p*100)
	}
	// The nearest rank, with a tolerance for p*n landing just above an
	// integer in floating point.
	rank := max(1, int(math.Ceil(p*float64(n)-1e-9)))
	if p > 0.5 && n-rank < minBeyond {
		return 0, fmt.Errorf("p%g needs ≥ %d samples beyond it, have %d samples", p*100, minBeyond, n)
	}
	return sorted(xs)[rank-1], nil
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points dividing xs into quarters, computed
// exactly as Python's statistics.quantiles(xs, n=4) does (the "exclusive"
// method), so spreads read the same here and in any script checking them.
// It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
