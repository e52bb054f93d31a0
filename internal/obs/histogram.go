package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: four log-spaced buckets per decade spanning
// 10^histLoExp .. 10^histHiExp, plus an underflow bucket (index 0, for
// values <= 10^histLoExp, including nonpositive and NaN values) and an
// overflow bucket (the last index). The edges are a fixed function of the
// bucket index — UpperEdge(i) = 10^(histLoExp + i/histPerDecade) — so test
// assertions about bucket placement and quantile estimates are stable
// across runs, platforms, and worker counts.
const (
	histLoExp      = -9
	histHiExp      = 9
	histPerDecade  = 4
	histNumBuckets = (histHiExp-histLoExp)*histPerDecade + 2
)

// Histogram is a fixed-log-bucket histogram of nonnegative observations
// (latencies in seconds, candidate counts, sizes). All updates are atomic;
// it is safe for concurrent use from parallel.For helpers.
type Histogram struct {
	buckets [histNumBuckets]atomic.Int64
	count   atomic.Int64
	sum     FloatTotal
}

// bucketIndex returns the smallest bucket whose upper edge is >= v.
func bucketIndex(v float64) int {
	if !(v > 0) {
		return 0 // nonpositive and NaN observations land in the underflow bucket
	}
	if math.IsInf(v, 1) {
		return histNumBuckets - 1
	}
	i := int(math.Ceil((math.Log10(v) - histLoExp) * histPerDecade))
	if i < 0 {
		return 0
	}
	if i >= histNumBuckets {
		return histNumBuckets - 1
	}
	return i
}

// UpperEdge returns the inclusive upper edge of bucket i. The overflow
// bucket reports math.MaxFloat64 (finite, so snapshots stay valid JSON).
func UpperEdge(i int) float64 {
	if i >= histNumBuckets-1 {
		return math.MaxFloat64
	}
	return math.Pow(10, histLoExp+float64(i)/histPerDecade)
}

// Observe records one value. Non-finite values count in the underflow or
// overflow bucket but are excluded from the sum, so snapshots stay finite
// (and valid JSON) no matter what was observed.
func (h *Histogram) Observe(v float64) {
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		h.sum.Add(v)
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Mean returns the mean observation (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return h.sum.Value() / float64(n)
}

// Quantile returns the upper edge of the bucket containing the q-quantile
// observation — a deterministic, conservative estimate. Empty histograms
// return 0.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(n)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := 0; i < histNumBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= target {
			return UpperEdge(i)
		}
	}
	return UpperEdge(histNumBuckets - 1)
}

// Time starts a latency measurement and returns the stop function that
// observes the elapsed seconds. When instrumentation is disabled it returns
// a shared no-op without reading the clock:
//
//	defer latencyHist.Time()()
func (h *Histogram) Time() func() {
	if !enabled.Load() {
		return noop
	}
	start := time.Now()
	return func() { h.Observe(time.Since(start).Seconds()) }
}

func (h *Histogram) reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.reset()
}
