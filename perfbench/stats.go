package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the fewest samples a reported tail percentile must have
// strictly beyond it; a p99 therefore needs at least 1000 samples.
const minTail = 10

// pctl is one percentile of a latency sample, carried with the sample count
// it was taken from.
type pctl struct {
	P       float64 // the percentile, in (0, 100)
	Value   float64
	Samples int // size of the sample
	Beyond  int // samples strictly above the percentile's rank
}

func (p pctl) String() string {
	return fmt.Sprintf("p%g=%.4f (n=%d, %d beyond)", p.P, p.Value, p.Samples, p.Beyond)
}

// percentile returns the nearest-rank p-th percentile of xs. It refuses a
// tail percentile (p > 50) that leaves fewer than minTail samples beyond
// it, because such a figure is set by a handful of outliers.
func percentile(xs []float64, p float64) (pctl, error) {
	n := len(xs)
	if n == 0 {
		return pctl{}, fmt.Errorf("percentile p%g of an empty sample", p)
	}
	if !(p > 0 && p < 100) {
		return pctl{}, fmt.Errorf("percentile p%g out of range (0, 100)", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based nearest rank
	beyond := n - rank
	if p > 50 && beyond < minTail {
		return pctl{}, fmt.Errorf("p%g of %d samples has %d beyond it; need at least %d", p, n, beyond, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return pctl{P: p, Value: s[rank-1], Samples: n, Beyond: beyond}, nil
}

// median returns the middle value of xs (the mean of the middle two for an
// even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of xs, or 0 for an empty slice (a layer
// that was never called reports zero time).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio returns num/den, or 0 when den is 0 (no attempts, no outcomes).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
