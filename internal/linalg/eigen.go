package linalg

import (
	"errors"
	"math"
	"sort"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// EigenSym holds the eigendecomposition of a real symmetric matrix:
// A = V · diag(Values) · Vᵀ, with eigenvalues sorted in descending order and
// eigenvectors stored as the columns of Vectors.
type EigenSym struct {
	Values  []float64
	Vectors *Matrix
}

// SymEig computes the full eigendecomposition of the symmetric matrix a
// using Householder tridiagonalization followed by the implicit QL
// algorithm (the classic tred2/tql2 pair). Only the lower triangle of a is
// read. The result is sorted by descending eigenvalue.
//
// The solver works on the transposed workspace W = Vᵀ, so eigenvector j is
// row j of W and every inner loop walks contiguous memory. Each element
// still sees the EISPACK routine's floating-point operations in the same
// order, so the result is bit-identical to the textbook column-walking
// transcription and to itself at every worker count.
func SymEig(a *Matrix) (*EigenSym, error) {
	vals, vecs, err := TopEigen(a, a.Rows)
	if err != nil {
		return nil, err
	}
	return &EigenSym{Values: vals, Vectors: vecs}, nil
}

// TopEigen returns the leading r eigenpairs (largest eigenvalues) of the
// symmetric matrix a: the first r of SymEig's, bit for bit and in the same
// order among ties. Only those r eigenvectors are copied out of the
// workspace, into an N×r matrix; r is clamped to the matrix dimension.
func TopEigen(a *Matrix, r int) (vals []float64, vecs *Matrix, err error) {
	defer obs.Span("linalg.eigen")()
	if a.Rows != a.Cols {
		return nil, nil, errors.New("linalg: SymEig requires a square matrix")
	}
	n := a.Rows
	if n == 0 {
		return nil, NewMatrix(0, 0), nil
	}
	// Symmetrize from the lower triangle so callers may pass matrices with
	// tiny asymmetries from floating point accumulation. The result is
	// symmetric, so it is its own transpose and seeds W directly.
	w := a.Clone()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			w.Data[i*n+j] = w.Data[j*n+i]
		}
	}
	d := make([]float64, n)
	e := make([]float64, n)
	tred2(w, d, e)
	if err := tql2(w, d, e); err != nil {
		return nil, nil, err
	}
	// Sort by descending eigenvalue; row j of W becomes a column of vecs.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(p, q int) bool { return d[idx[p]] > d[idx[q]] })
	if r > n {
		r = n
	}
	vals = make([]float64, r)
	vecs = NewMatrix(n, r)
	for c, j := range idx[:r] {
		vals[c] = d[j]
		for i, x := range w.Row(j) {
			vecs.Data[i*r+c] = x
		}
	}
	return vals, vecs, nil
}

// tred2 reduces the symmetric matrix stored in w to tridiagonal form using
// Householder similarity transformations, accumulating the transformations
// in w. On return d holds the diagonal and e the subdiagonal. It is the
// EISPACK routine with the accumulator transposed: every reference to
// element (r, c) of the routine's V is to element (c, r) of w, so the
// column walks of the original are row walks here.
func tred2(w *Matrix, d, e []float64) {
	n := w.Rows
	a := w.Data
	for j := 0; j < n; j++ {
		d[j] = a[j*n+n-1]
	}
	for i := n - 1; i > 0; i-- {
		scale := 0.0
		h := 0.0
		for k := 0; k < i; k++ {
			scale += math.Abs(d[k])
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = a[j*n+i-1]
				a[j*n+i] = 0
				a[i*n+j] = 0
			}
		} else {
			for k := 0; k < i; k++ {
				d[k] /= scale
				h += d[k] * d[k]
			}
			f := d[i-1]
			g := math.Sqrt(h)
			if f > 0 {
				g = -g
			}
			e[i] = scale * g
			h -= f * g
			d[i-1] = f - g
			for j := 0; j < i; j++ {
				e[j] = 0
			}
			wi := a[i*n : i*n+i]
			for j := 0; j < i; j++ {
				f = d[j]
				wi[j] = f
				g = e[j] + a[j*n+j]*f
				// Row j right of the diagonal, with d and e cut to match so
				// the loop runs without bounds checks.
				wj := a[j*n+j+1 : j*n+i]
				dk, ek := d[j+1:i], e[j+1:i]
				dk, ek = dk[:len(wj)], ek[:len(wj)]
				for k, x := range wj {
					g += x * dk[k]
					ek[k] += x * f
				}
				e[j] = g
			}
			f = 0
			for j := 0; j < i; j++ {
				e[j] /= h
				f += e[j] * d[j]
			}
			hh := f / (h + h)
			for j := 0; j < i; j++ {
				e[j] -= hh * d[j]
			}
			// Row updates are independent (row j only reads d and e, which
			// are fixed here, plus its own entries), so they go to
			// parallel.For; the d refresh moves after the barrier because
			// row j's final entries are written only by its own worker.
			parallel.For(i, parallel.GrainFor(i/2+1, 1<<14), func(lo, hi int) {
				for j := lo; j < hi; j++ {
					fj := d[j]
					gj := e[j]
					wj := a[j*n+j : j*n+i]
					ek, dk := e[j:i], d[j:i]
					ek, dk = ek[:len(wj)], dk[:len(wj)]
					for k := range wj {
						wj[k] -= fj*ek[k] + gj*dk[k]
					}
				}
			})
			for j := 0; j < i; j++ {
				d[j] = a[j*n+i-1]
				a[j*n+i] = 0
			}
		}
		d[i] = h
	}
	// Accumulate transformations.
	for i := 0; i < n-1; i++ {
		a[i*n+n-1] = a[i*n+i]
		a[i*n+i] = 1
		h := d[i+1]
		u := a[(i+1)*n : (i+1)*n+i+1]
		if h != 0 {
			du := d[:len(u)]
			for k, x := range u {
				du[k] = x / h
			}
			// Independent per row j: reads row i+1 and d (both fixed),
			// writes only row j. Exact at every worker count.
			parallel.For(i+1, parallel.GrainFor(i+1, 1<<14), func(lo, hi int) {
				for j := lo; j < hi; j++ {
					wj := a[j*n:][:len(u)]
					g := 0.0
					for k, x := range u {
						g += x * wj[k]
					}
					for k, x := range du[:len(wj)] {
						wj[k] -= g * x
					}
				}
			})
		}
		for k := range u {
			u[k] = 0
		}
	}
	for j := 0; j < n; j++ {
		d[j] = a[j*n+n-1]
		a[j*n+n-1] = 0
	}
	a[n*n-1] = 1
	e[0] = 0
}

// tql2 computes the eigendecomposition of the symmetric tridiagonal matrix
// (d, e) using the implicit QL algorithm, updating the accumulated
// transformations in the transposed workspace w. EISPACK routine; each
// Givens rotation of columns (i, i+1) of V is a rotation of the two
// adjacent rows i, i+1 of w, a plain contiguous loop.
func tql2(w *Matrix, d, e []float64) error {
	n := w.Rows
	a := w.Data
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0

	f := 0.0
	tst1 := 0.0
	eps := math.Pow(2, -52)
	for l := 0; l < n; l++ {
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		m := l
		for m < n {
			if math.Abs(e[m]) <= eps*tst1 {
				break
			}
			m++
		}
		if m > l {
			for iter := 0; ; iter++ {
				if iter > 50 {
					return errors.New("linalg: tql2 failed to converge")
				}
				// Compute implicit shift.
				g := d[l]
				p := (d[l+1] - g) / (2 * e[l])
				r := math.Hypot(p, 1)
				if p < 0 {
					r = -r
				}
				d[l] = e[l] / (p + r)
				d[l+1] = e[l] * (p + r)
				dl1 := d[l+1]
				h := g - d[l]
				for i := l + 2; i < n; i++ {
					d[i] -= h
				}
				f += h
				// Implicit QL transformation.
				p = d[m]
				c := 1.0
				c2 := c
				c3 := c
				el1 := e[l+1]
				s := 0.0
				s2 := 0.0
				for i := m - 1; i >= l; i-- {
					c3 = c2
					c2 = c
					s2 = s
					g = c * e[i]
					h = c * p
					r = math.Hypot(p, e[i])
					e[i+1] = s * r
					s = e[i] / r
					c = p / r
					p = c*d[i] - s*g
					d[i+1] = h + s*(c*g+s*d[i])
					// Accumulate transformation.
					wi := a[i*n : i*n+n]
					wi1 := a[(i+1)*n : (i+1)*n+n]
					wi1 = wi1[:len(wi)]
					for k, x := range wi {
						hk := wi1[k]
						wi1[k] = s*x + c*hk
						wi[k] = c*x - s*hk
					}
				}
				p = -s * s2 * c3 * el1 * e[l] / dl1
				e[l] = s * p
				d[l] = c * p
				if math.Abs(e[l]) <= eps*tst1 {
					break
				}
			}
		}
		d[l] += f
		e[l] = 0
	}
	return nil
}
