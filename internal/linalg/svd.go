package linalg

import (
	"errors"
	"math"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// SVDFactor holds a thin singular value decomposition A = U · diag(S) · Vᵀ,
// with S sorted descending, U of size m x p and V of size n x p where
// p = min(m, n).
type SVDFactor struct {
	U *Matrix
	S []float64
	V *Matrix
}

// SVD computes the thin singular value decomposition of a. For matrices
// with more columns than rows the decomposition is computed on the
// transpose and the factors swapped.
func SVD(a *Matrix) (*SVDFactor, error) {
	defer obs.Span("linalg.svd")()
	if a.Rows >= a.Cols {
		return svdTall(a)
	}
	f, err := svdTall(a.T())
	if err != nil {
		return nil, err
	}
	return &SVDFactor{U: f.V, S: f.S, V: f.U}, nil
}

// svdTall implements the Golub-Reinsch algorithm (JAMA translation) for
// m >= n.
func svdTall(arg *Matrix) (*SVDFactor, error) {
	a := arg.Clone()
	m, n := a.Rows, a.Cols
	if n == 0 {
		return &SVDFactor{U: NewMatrix(m, 0), S: nil, V: NewMatrix(0, 0)}, nil
	}
	nu := n
	s := make([]float64, n+1)
	u := NewMatrix(m, nu)
	v := NewMatrix(n, n)
	e := make([]float64, n)
	work := make([]float64, m)

	// Reduce a to bidiagonal form, storing the diagonal elements in s and
	// the super-diagonal elements in e.
	nct := min(m-1, n)
	nrt := max(0, min(n-2, m))
	for k := 0; k < max(nct, nrt); k++ {
		if k < nct {
			// Compute the 2-norm of the k-th column of a below the diagonal.
			s[k] = 0
			for i := k; i < m; i++ {
				s[k] = math.Hypot(s[k], a.At(i, k))
			}
			if s[k] != 0 {
				if a.At(k, k) < 0 {
					s[k] = -s[k]
				}
				for i := k; i < m; i++ {
					a.Set(i, k, a.At(i, k)/s[k])
				}
				a.Set(k, k, a.At(k, k)+1)
			}
			s[k] = -s[k]
		}
		// Householder application is independent per column j > k (column k
		// is read-only here), so column blocks go to parallel.For.
		parallel.For(n-(k+1), parallel.GrainFor(2*(m-k)+1, 1<<14), func(lo, hi int) {
			for j := k + 1 + lo; j < k+1+hi; j++ {
				if k < nct && s[k] != 0 {
					// Apply the transformation.
					t := 0.0
					for i := k; i < m; i++ {
						t += a.At(i, k) * a.At(i, j)
					}
					t = -t / a.At(k, k)
					for i := k; i < m; i++ {
						a.Set(i, j, a.At(i, j)+t*a.At(i, k))
					}
				}
				e[j] = a.At(k, j)
			}
		})
		if k < nct {
			for i := k; i < m; i++ {
				u.Set(i, k, a.At(i, k))
			}
		}
		if k < nrt {
			// Compute the k-th row transformation.
			e[k] = 0
			for i := k + 1; i < n; i++ {
				e[k] = math.Hypot(e[k], e[i])
			}
			if e[k] != 0 {
				if e[k+1] < 0 {
					e[k] = -e[k]
				}
				for i := k + 1; i < n; i++ {
					e[i] /= e[k]
				}
				e[k+1]++
			}
			e[k] = -e[k]
			if k+1 < m && e[k] != 0 {
				for i := k + 1; i < m; i++ {
					work[i] = 0
				}
				for j := k + 1; j < n; j++ {
					for i := k + 1; i < m; i++ {
						work[i] += e[j] * a.At(i, j)
					}
				}
				for j := k + 1; j < n; j++ {
					t := -e[j] / e[k+1]
					for i := k + 1; i < m; i++ {
						a.Set(i, j, a.At(i, j)+t*work[i])
					}
				}
			}
			for i := k + 1; i < n; i++ {
				v.Set(i, k, e[i])
			}
		}
	}

	// Set up the final bidiagonal matrix of order p.
	p := min(n, m+1)
	if nct < n {
		s[nct] = a.At(nct, nct)
	}
	if m < p {
		s[p-1] = 0
	}
	if nrt+1 < p {
		e[nrt] = a.At(nrt, p-1)
	}
	e[p-1] = 0

	// Generate U.
	for j := nct; j < nu; j++ {
		for i := 0; i < m; i++ {
			u.Set(i, j, 0)
		}
		u.Set(j, j, 1)
	}
	for k := nct - 1; k >= 0; k-- {
		if s[k] != 0 {
			// Column k is only modified after this loop, so columns j > k
			// update independently.
			parallel.For(nu-(k+1), parallel.GrainFor(2*(m-k)+1, 1<<14), func(lo, hi int) {
				for j := k + 1 + lo; j < k+1+hi; j++ {
					t := 0.0
					for i := k; i < m; i++ {
						t += u.At(i, k) * u.At(i, j)
					}
					t = -t / u.At(k, k)
					for i := k; i < m; i++ {
						u.Set(i, j, u.At(i, j)+t*u.At(i, k))
					}
				}
			})
			for i := k; i < m; i++ {
				u.Set(i, k, -u.At(i, k))
			}
			u.Set(k, k, 1+u.At(k, k))
			for i := 0; i < k-1; i++ {
				u.Set(i, k, 0)
			}
		} else {
			for i := 0; i < m; i++ {
				u.Set(i, k, 0)
			}
			u.Set(k, k, 1)
		}
	}

	// Generate V.
	for k := n - 1; k >= 0; k-- {
		if k < nrt && e[k] != 0 {
			parallel.For(nu-(k+1), parallel.GrainFor(2*(n-k)+1, 1<<14), func(lo, hi int) {
				for j := k + 1 + lo; j < k+1+hi; j++ {
					t := 0.0
					for i := k + 1; i < n; i++ {
						t += v.At(i, k) * v.At(i, j)
					}
					t = -t / v.At(k+1, k)
					for i := k + 1; i < n; i++ {
						v.Set(i, j, v.At(i, j)+t*v.At(i, k))
					}
				}
			})
		}
		for i := 0; i < n; i++ {
			v.Set(i, k, 0)
		}
		v.Set(k, k, 1)
	}

	// Main iteration loop for the singular values.
	pp := p - 1
	iter := 0
	eps := math.Pow(2, -52)
	tiny := math.Pow(2, -966)
	for p > 0 {
		if iter > 500 {
			return nil, errors.New("linalg: SVD failed to converge")
		}
		var k, kase int
		// Determine the action to take.
		for k = p - 2; k >= -1; k-- {
			if k == -1 {
				break
			}
			if math.Abs(e[k]) <= tiny+eps*(math.Abs(s[k])+math.Abs(s[k+1])) {
				e[k] = 0
				break
			}
		}
		if k == p-2 {
			kase = 4
		} else {
			var ks int
			for ks = p - 1; ks >= k; ks-- {
				if ks == k {
					break
				}
				t := 0.0
				if ks != p {
					t += math.Abs(e[ks])
				}
				if ks != k+1 {
					t += math.Abs(e[ks-1])
				}
				if math.Abs(s[ks]) <= tiny+eps*t {
					s[ks] = 0
					break
				}
			}
			if ks == k {
				kase = 3
			} else if ks == p-1 {
				kase = 1
			} else {
				kase = 2
				k = ks
			}
		}
		k++

		switch kase {
		case 1: // Deflate negligible s(p).
			f := e[p-2]
			e[p-2] = 0
			for j := p - 2; j >= k; j-- {
				t := math.Hypot(s[j], f)
				cs := s[j] / t
				sn := f / t
				s[j] = t
				if j != k {
					f = -sn * e[j-1]
					e[j-1] = cs * e[j-1]
				}
				for i := 0; i < n; i++ {
					t = cs*v.At(i, j) + sn*v.At(i, p-1)
					v.Set(i, p-1, -sn*v.At(i, j)+cs*v.At(i, p-1))
					v.Set(i, j, t)
				}
			}
		case 2: // Split at negligible s(k).
			f := e[k-1]
			e[k-1] = 0
			for j := k; j < p; j++ {
				t := math.Hypot(s[j], f)
				cs := s[j] / t
				sn := f / t
				s[j] = t
				f = -sn * e[j]
				e[j] = cs * e[j]
				for i := 0; i < m; i++ {
					t = cs*u.At(i, j) + sn*u.At(i, k-1)
					u.Set(i, k-1, -sn*u.At(i, j)+cs*u.At(i, k-1))
					u.Set(i, j, t)
				}
			}
		case 3: // Perform one QR step.
			// Calculate the shift.
			scale := math.Max(math.Max(math.Max(math.Max(
				math.Abs(s[p-1]), math.Abs(s[p-2])), math.Abs(e[p-2])),
				math.Abs(s[k])), math.Abs(e[k]))
			sp := s[p-1] / scale
			spm1 := s[p-2] / scale
			epm1 := e[p-2] / scale
			sk := s[k] / scale
			ek := e[k] / scale
			b := ((spm1+sp)*(spm1-sp) + epm1*epm1) / 2
			c := (sp * epm1) * (sp * epm1)
			shift := 0.0
			if b != 0 || c != 0 {
				shift = math.Sqrt(b*b + c)
				if b < 0 {
					shift = -shift
				}
				shift = c / (b + shift)
			}
			f := (sk+sp)*(sk-sp) + shift
			g := sk * ek
			// Chase zeros.
			for j := k; j < p-1; j++ {
				t := math.Hypot(f, g)
				cs := f / t
				sn := g / t
				if j != k {
					e[j-1] = t
				}
				f = cs*s[j] + sn*e[j]
				e[j] = cs*e[j] - sn*s[j]
				g = sn * s[j+1]
				s[j+1] = cs * s[j+1]
				rotateCols(v, j, cs, sn)
				t = math.Hypot(f, g)
				cs = f / t
				sn = g / t
				s[j] = t
				f = cs*e[j] + sn*s[j+1]
				s[j+1] = -sn*e[j] + cs*s[j+1]
				g = sn * e[j+1]
				e[j+1] = cs * e[j+1]
				if j < m-1 {
					rotateCols(u, j, cs, sn)
				}
			}
			e[p-2] = f
			iter++
		case 4: // Convergence.
			// Make the singular values positive.
			if s[k] <= 0 {
				if s[k] < 0 {
					s[k] = -s[k]
				} else {
					s[k] = 0
				}
				for i := 0; i <= pp; i++ {
					v.Set(i, k, -v.At(i, k))
				}
			}
			// Order the singular values.
			for k < pp {
				if s[k] >= s[k+1] {
					break
				}
				s[k], s[k+1] = s[k+1], s[k]
				if k < n-1 {
					for i := 0; i < n; i++ {
						t := v.At(i, k+1)
						v.Set(i, k+1, v.At(i, k))
						v.Set(i, k, t)
					}
				}
				if k < m-1 {
					for i := 0; i < m; i++ {
						t := u.At(i, k+1)
						u.Set(i, k+1, u.At(i, k))
						u.Set(i, k, t)
					}
				}
				k++
			}
			iter = 0
			p--
		}
	}
	return &SVDFactor{U: u, S: s[:n], V: v}, nil
}

// rotateCols applies the Givens rotation (cs, sn) to columns (j, j+1) of a,
// splitting rows through parallel.For; each row is independent, so the
// result is exact at every worker count.
func rotateCols(a *Matrix, j int, cs, sn float64) {
	parallel.For(a.Rows, parallel.GrainFor(6, 1<<14), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			t := cs*a.At(i, j) + sn*a.At(i, j+1)
			a.Set(i, j+1, -sn*a.At(i, j)+cs*a.At(i, j+1))
			a.Set(i, j, t)
		}
	})
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
