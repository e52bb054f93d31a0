// Package kernels implements the kernel functions and kernel matrices used
// by KCCA: the Gaussian (RBF) kernel of Eq. (1) of the paper, the paper's
// scale heuristic (τ set to a fixed fraction of the empirical variance of
// the data-point norms), and kernel matrix centering.
package kernels

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Gaussian returns exp(−‖a−b‖²/τ), the paper's Eq. (1).
func Gaussian(a, b []float64, tau float64) float64 {
	if tau <= 0 {
		panic("kernels: nonpositive scale")
	}
	d := 0.0
	for i := range a {
		x := a[i] - b[i]
		d += x * x
	}
	return math.Exp(-d / tau)
}

// ScaleHeuristic returns τ = frac · Var(‖xᵢ‖), the paper's choice of kernel
// scale: "a fixed fraction of the empirical variance of the norms of the
// data points" (0.1 for query vectors, 0.2 for performance vectors). A
// positive floor keeps degenerate datasets usable.
func ScaleHeuristic(rows *linalg.Matrix, frac float64) float64 {
	norms := make([]float64, rows.Rows)
	for i := 0; i < rows.Rows; i++ {
		norms[i] = linalg.Norm(rows.Row(i))
	}
	return scaleFromNorms(norms, frac)
}

// scaleFromNorms is the heuristic on precomputed data-point norms. The
// Maintained kernel state keeps per-row norms incrementally and re-derives
// its τ-drift candidate through this exact function, so a drift-triggered
// full rebuild lands on bit-identical scales to a from-scratch train.
func scaleFromNorms(norms []float64, frac float64) float64 {
	tau := frac * linalg.Variance(norms)
	if tau <= 1e-12 {
		// All norms (nearly) identical: fall back to the mean squared norm
		// so the kernel still discriminates by direction.
		m := linalg.Mean(norms)
		tau = frac * (m*m + 1)
	}
	return tau
}

// Matrix computes the N×N Gaussian kernel matrix of the rows of x. Rows are
// partitioned through parallel.For; element (i, j) with i < j is
// computed exactly once (by the worker owning row i, which mirrors it to
// (j, i)), so the result is identical to the serial loop at every worker
// count.
func Matrix(x *linalg.Matrix, tau float64) *linalg.Matrix {
	return MatrixInto(linalg.NewMatrix(x.Rows, x.Rows), x, tau)
}

// MatrixInto computes the kernel matrix of x into the caller-owned k (which
// must be x.Rows square) and returns it. Rebuild paths that already hold an
// N×N buffer (the Maintained state) reuse it instead of reallocating.
func MatrixInto(k *linalg.Matrix, x *linalg.Matrix, tau float64) *linalg.Matrix {
	defer obs.Span("kernels.matrix")()
	n := x.Rows
	if k.Rows != n || k.Cols != n {
		panic(fmt.Sprintf("kernels: MatrixInto target is %dx%d, want %dx%d", k.Rows, k.Cols, n, n))
	}
	parallel.For(n, parallel.GrainFor(n*x.Cols/2+1, 1<<15), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			k.Set(i, i, 1)
			ri := x.Row(i)
			for j := i + 1; j < n; j++ {
				v := Gaussian(ri, x.Row(j), tau)
				k.Set(i, j, v)
				k.Set(j, i, v)
			}
		}
	})
	return k
}

// crossScratch pools the per-call kernel vectors of the prediction hot path
// (one float64 slice per in-flight CrossVector-using caller).
var crossScratch = sync.Pool{New: func() any { s := make([]float64, 0, 512); return &s }}

// GetScratch leases a float64 buffer of length n from the package pool;
// pair with PutScratch. Hot paths that consume a kernel vector and discard
// it (projection, maintained row updates) use it to keep per-prediction
// allocations flat.
func GetScratch(n int) *[]float64 {
	p := crossScratch.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	*p = (*p)[:n]
	return p
}

// PutScratch returns a leased buffer to the pool.
func PutScratch(p *[]float64) { crossScratch.Put(p) }

// CrossVector computes the kernel evaluations k(q, xᵢ) of one query point
// against every row of x.
func CrossVector(x *linalg.Matrix, q []float64, tau float64) []float64 {
	return CrossVectorInto(make([]float64, x.Rows), x, q, tau)
}

// CrossVectorInto is CrossVector into a caller-owned buffer of length
// x.Rows (commonly leased from GetScratch), returning it.
func CrossVectorInto(out []float64, x *linalg.Matrix, q []float64, tau float64) []float64 {
	defer obs.Span("kernels.cross_vector")()
	if len(q) != x.Cols {
		panic(fmt.Sprintf("kernels: query has %d features, want %d", len(q), x.Cols))
	}
	if len(out) != x.Rows {
		panic(fmt.Sprintf("kernels: cross-vector buffer has %d entries, want %d", len(out), x.Rows))
	}
	parallel.For(x.Rows, parallel.GrainFor(x.Cols, 1<<14), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = Gaussian(x.Row(i), q, tau)
		}
	})
	return out
}

// Center double-centers the kernel matrix in feature space:
// K' = (I − 1/n) K (I − 1/n). It returns the centered matrix together with
// the row means and grand mean needed to center out-of-sample kernel
// vectors consistently.
func Center(k *linalg.Matrix) (centered *linalg.Matrix, rowMeans []float64, grandMean float64) {
	defer obs.Span("kernels.center")()
	n := k.Rows
	rowMeans = make([]float64, n)
	grain := parallel.GrainFor(n, 1<<15)
	parallel.For(n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			rowMeans[i] = linalg.Mean(k.Row(i))
		}
	})
	grandMean = linalg.Mean(rowMeans)
	centered = linalg.NewMatrix(n, n)
	parallel.For(n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := 0; j < n; j++ {
				centered.Set(i, j, k.At(i, j)-rowMeans[i]-rowMeans[j]+grandMean)
			}
		}
	})
	return centered, rowMeans, grandMean
}

// CenterCross centers an out-of-sample kernel vector kq (evaluations of the
// new point against the training points) consistently with Center:
// k'ᵢ = kᵢ − mean(kq) − rowMeansᵢ + grandMean.
func CenterCross(kq, rowMeans []float64, grandMean float64) []float64 {
	return CenterCrossInto(make([]float64, len(kq)), kq, rowMeans, grandMean)
}

// CenterCrossInto is CenterCross into a caller-owned buffer; dst may alias
// kq, letting hot paths center a leased kernel vector in place.
func CenterCrossInto(dst, kq, rowMeans []float64, grandMean float64) []float64 {
	m := linalg.Mean(kq)
	for i, v := range kq {
		dst[i] = v - m - rowMeans[i] + grandMean
	}
	return dst
}

// MedianSqDist returns the median squared Euclidean distance between rows
// of x (subsampled for large inputs) — the standard "median heuristic" for
// choosing a Gaussian kernel scale when the norm-variance heuristic
// degenerates (e.g. compact feature spaces where norms barely vary).
func MedianSqDist(x *linalg.Matrix) float64 {
	n := x.Rows
	if n < 2 {
		return 1
	}
	// Deterministic subsample: stride through the rows.
	maxPairs := 2000
	var dists []float64
	stride := 1
	if n*(n-1)/2 > maxPairs {
		stride = n * (n - 1) / 2 / maxPairs
		if stride < 1 {
			stride = 1
		}
	}
	count := 0
	for i := 0; i < n && len(dists) < maxPairs; i++ {
		for j := i + 1; j < n && len(dists) < maxPairs; j++ {
			if count%stride == 0 {
				d := 0.0
				ri, rj := x.Row(i), x.Row(j)
				for k := range ri {
					v := ri[k] - rj[k]
					d += v * v
				}
				dists = append(dists, d)
			}
			count++
		}
	}
	sort.Float64s(dists)
	m := dists[len(dists)/2]
	if m <= 0 {
		return 1
	}
	return m
}
