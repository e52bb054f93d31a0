package linalg

import (
	"errors"
	"math"
	"sort"

	"repro/internal/parallel"
)

// refSymEig is the direct EISPACK transcription of tred2/tql2, which keeps
// the eigenvectors in the columns of a row-major matrix and so walks it down
// its columns. It is the oracle TestSymEigMatchesReference holds SymEig to,
// bit for bit.
func refSymEig(a *Matrix) (*EigenSym, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("linalg: SymEig requires a square matrix")
	}
	n := a.Rows
	if n == 0 {
		return &EigenSym{Values: nil, Vectors: NewMatrix(0, 0)}, nil
	}
	v := a.Clone()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v.Set(i, j, v.At(j, i))
		}
	}
	d := make([]float64, n)
	e := make([]float64, n)
	refTred2(v, d, e)
	if err := refTql2(v, d, e); err != nil {
		return nil, err
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(p, q int) bool { return d[idx[p]] > d[idx[q]] })
	vals := make([]float64, n)
	vecs := NewMatrix(n, n)
	for c, j := range idx {
		vals[c] = d[j]
		for i := 0; i < n; i++ {
			vecs.Set(i, c, v.At(i, j))
		}
	}
	return &EigenSym{Values: vals, Vectors: vecs}, nil
}

// refTred2 reduces the symmetric matrix stored in v to tridiagonal form using
// Householder similarity transformations, accumulating the transformations
// in v. On return d holds the diagonal and e the subdiagonal. This is a
// direct translation of the EISPACK routine.
func refTred2(v *Matrix, d, e []float64) {
	n := v.Rows
	for j := 0; j < n; j++ {
		d[j] = v.At(n-1, j)
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
				d[j] = v.At(i-1, j)
				v.Set(i, j, 0)
				v.Set(j, i, 0)
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
			for j := 0; j < i; j++ {
				f = d[j]
				v.Set(j, i, f)
				g = e[j] + v.At(j, j)*f
				for k := j + 1; k <= i-1; k++ {
					g += v.At(k, j) * d[k]
					e[k] += v.At(k, j) * f
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
			// Column updates are independent (column j only reads d and e,
			// which are fixed here, plus its own entries), so they go to the
			// worker pool; the d refresh moves after the barrier because
			// column j's final entries are written only by its own worker.
			parallel.For(i, parallel.GrainFor(i/2+1, 1<<14), func(lo, hi int) {
				for j := lo; j < hi; j++ {
					fj := d[j]
					gj := e[j]
					for k := j; k <= i-1; k++ {
						v.Set(k, j, v.At(k, j)-(fj*e[k]+gj*d[k]))
					}
				}
			})
			for j := 0; j < i; j++ {
				d[j] = v.At(i-1, j)
				v.Set(i, j, 0)
			}
		}
		d[i] = h
	}
	// Accumulate transformations.
	for i := 0; i < n-1; i++ {
		v.Set(n-1, i, v.At(i, i))
		v.Set(i, i, 1)
		h := d[i+1]
		if h != 0 {
			for k := 0; k <= i; k++ {
				d[k] = v.At(k, i+1) / h
			}
			// Independent per column j: reads column i+1 and d (both fixed),
			// writes only column j. Exact at every worker count.
			parallel.For(i+1, parallel.GrainFor(i+1, 1<<14), func(lo, hi int) {
				for j := lo; j < hi; j++ {
					g := 0.0
					for k := 0; k <= i; k++ {
						g += v.At(k, i+1) * v.At(k, j)
					}
					for k := 0; k <= i; k++ {
						v.Set(k, j, v.At(k, j)-g*d[k])
					}
				}
			})
		}
		for k := 0; k <= i; k++ {
			v.Set(k, i+1, 0)
		}
	}
	for j := 0; j < n; j++ {
		d[j] = v.At(n-1, j)
		v.Set(n-1, j, 0)
	}
	v.Set(n-1, n-1, 1)
	e[0] = 0
}

// refTql2 computes the eigendecomposition of the symmetric tridiagonal matrix
// (d, e) using the implicit QL algorithm, updating the accumulated
// transformations in v. Direct translation of the EISPACK routine.
func refTql2(v *Matrix, d, e []float64) error {
	n := v.Rows
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
					// Accumulate transformation: a Givens rotation of columns
					// (i, i+1), independent per row k. The grain keeps small
					// matrices on the exact serial path; h is shadowed so the
					// outer variable is untouched under parallel execution.
					cc, ss := c, s
					parallel.For(n, parallel.GrainFor(6, 1<<14), func(lo, hi int) {
						for k := lo; k < hi; k++ {
							hk := v.At(k, i+1)
							v.Set(k, i+1, ss*v.At(k, i)+cc*hk)
							v.Set(k, i, cc*v.At(k, i)-ss*hk)
						}
					})
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
