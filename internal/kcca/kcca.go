// Package kcca implements Kernel Canonical Correlation Analysis — the
// paper's chosen technique (Sec. V-E and VI). Gaussian kernel matrices are
// computed for the query-feature and performance-feature datasets, centered
// in feature space, reduced via kernel PCA, and correlated with
// regularized linear CCA in the reduced space. The result is a pair of
// projections — the query projection KxA and performance projection KyB of
// the paper — in which corresponding rows are maximally correlated, plus
// the machinery to project a previously unseen query into the query
// projection (the first step of Fig. 7's prediction pipeline).
package kcca

import (
	"errors"
	"math"

	"repro/internal/cca"
	"repro/internal/kernels"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Options configures KCCA training.
type Options struct {
	// TauFracX and TauFracY set the Gaussian kernel scales as fractions of
	// the empirical variance of data-point norms. The paper uses 0.1 for
	// query vectors and 0.2 for performance vectors. The heuristic suits
	// data whose norms vary over orders of magnitude (like cardinality
	// features); TauX/TauY override it with absolute scales.
	TauFracX, TauFracY float64
	// TauX and TauY, when positive, set the kernel scales directly and
	// bypass the heuristic.
	TauX, TauY float64
	// Rank is the kernel-PCA reduction rank per view; 0 selects an
	// automatic rank (enough components to cover most kernel variance,
	// capped for tractability).
	Rank int
	// Dims is the number of canonical dimensions kept; 0 keeps all
	// available (= reduced rank).
	Dims int
	// Reg is the CCA ridge regularization; 0 selects a default.
	Reg float64
	// Lanczos selects the iterative top-rank eigensolver (block subspace
	// iteration, linalg.TopEigenIterative) for the kernel-PCA step instead
	// of the dense O(N³) tred2/tql2 solve. Off by default for one-shot
	// training; the sliding predictor's Incremental retrainer always uses
	// the iterative solver with warm starts, independent of this switch.
	// Falls back to the dense solver when the iteration does not converge
	// or the requested rank is too large a fraction of N to pay off.
	Lanczos bool
	// TauDriftTol is the τ-drift guard's relative tolerance for
	// incremental retraining: a retrain whose scale heuristic has moved
	// more than this fraction from the frozen kernel scale triggers a full
	// rebuild. 0 selects 0.1.
	TauDriftTol float64
}

// DefaultOptions returns the paper's settings.
func DefaultOptions() Options {
	return Options{TauFracX: 0.1, TauFracY: 0.2, Rank: 0, Dims: 0, Reg: 1e-3}
}

// Sentinel errors, for errors.Is branching by callers (core wraps these).
var (
	// ErrRowMismatch means the query and performance feature matrices
	// disagree on training-query count.
	ErrRowMismatch = errors.New("kcca: feature matrices must have equal row counts")
	// ErrTooFew means the training set was below the five-query minimum.
	ErrTooFew = errors.New("kcca: need at least five training queries")
	// ErrDegenerate means a kernel matrix had no numerically significant
	// components to build a projection from.
	ErrDegenerate = errors.New("kcca: kernel matrix has no significant components")
)

// Model is a trained KCCA model.
type Model struct {
	// X holds the training query feature matrix (needed to kernelize new
	// queries).
	X *linalg.Matrix
	// TauX and TauY are the kernel scales actually used.
	TauX, TauY float64

	// QueryProj and PerfProj are the training projections (N×d): the
	// paper's KxA and KyB. Row i of each corresponds to training query i.
	QueryProj, PerfProj *linalg.Matrix

	// Correlations are the canonical correlations per dimension.
	Correlations []float64

	// Centering data for out-of-sample query projection.
	rowMeansX []float64
	grandX    float64
	// Kernel-PCA basis for the X view: Phi = Ux·Λx^{1/2}; a new kernel
	// vector kq maps to φq = Λx^{−1/2}·Uxᵀ·kq.
	ux   *linalg.Matrix
	lamx []float64
	// CCA weights in reduced space.
	ccaModel *cca.Model
}

// applyDefaults fills zero-valued options with the paper's defaults.
func applyDefaults(opt Options) Options {
	if opt.TauFracX <= 0 {
		opt.TauFracX = 0.1
	}
	if opt.TauFracY <= 0 {
		opt.TauFracY = 0.2
	}
	if opt.Reg <= 0 {
		opt.Reg = 1e-3
	}
	if opt.TauDriftTol <= 0 {
		opt.TauDriftTol = 0.1
	}
	return opt
}

// resolveRank applies the automatic kernel-PCA rank rule: a quarter of the
// training set, capped at 80 for tractability, floored at 8 for stability,
// and never exceeding n−1 (a centered kernel matrix has rank ≤ n−1).
func resolveRank(n int, opt Options) int {
	rank := opt.Rank
	if rank <= 0 {
		rank = n / 4
		if rank > 80 {
			rank = 80
		}
		if rank < 8 {
			rank = 8
		}
	}
	if rank > n-1 {
		rank = n - 1
	}
	return rank
}

// iterWorthwhile reports whether the iterative top-rank eigensolver pays
// off: its block is rank + oversampling columns, and below about half of N
// the O(N²·b) iteration no longer beats the dense O(N³) solve (and loses
// the room it needs to converge).
func iterWorthwhile(n, rank int) bool {
	return n >= 2*(rank+linalg.DefaultOversample)
}

// Train fits KCCA on the query features x and performance features y (one
// row per training query in both, same order).
func Train(x, y *linalg.Matrix, opt Options) (*Model, error) {
	defer obs.Span("kcca.train")()
	if x.Rows != y.Rows {
		return nil, ErrRowMismatch
	}
	n := x.Rows
	if n < 5 {
		return nil, ErrTooFew
	}
	opt = applyDefaults(opt)

	tauX := opt.TauX
	if tauX <= 0 {
		tauX = kernels.ScaleHeuristic(x, opt.TauFracX)
	}
	tauY := opt.TauY
	if tauY <= 0 {
		tauY = kernels.ScaleHeuristic(y, opt.TauFracY)
	}

	// The query-side and performance-side views are independent until the
	// CCA fit, so each view's kernel matrix and centering run as one task of
	// a parallel.Do fan-out (each task's internals parallelize further when
	// helper slots are free).
	var kxC, kyC *linalg.Matrix
	var rowMeansX []float64
	var grandX float64
	stopKernel := obs.Span("kcca.train.kernel")
	parallel.Do(
		func() { kxC, rowMeansX, grandX = kernels.Center(kernels.Matrix(x, tauX)) },
		func() { kyC, _, _ = kernels.Center(kernels.Matrix(y, tauY)) },
	)
	stopKernel()

	rank := resolveRank(n, opt)

	var phiX, phiY, ux, uy *linalg.Matrix
	var lamx []float64
	var errX, errY error
	stopEigen := obs.Span("kcca.train.eigen")
	useIter := opt.Lanczos && iterWorthwhile(n, rank)
	parallel.Do(
		func() { phiX, ux, lamx, errX = pcaSolve(kxC, rank, useIter, nil) },
		func() { phiY, uy, _, errY = pcaSolve(kyC, rank, useIter, nil) },
	)
	stopEigen()
	_ = uy
	if errX != nil {
		return nil, errX
	}
	if errY != nil {
		return nil, errY
	}

	return fitModel(x.Clone(), tauX, tauY, rowMeansX, grandX, phiX, ux, lamx, phiY, opt)
}

// keepFrac is the kernel-PCA significance threshold: components with
// eigenvalues below keepFrac·max(λ₁, 1) are dropped (phiFromEigen), and the
// iterative solver is told not to chase residuals on them (DropBelow).
const keepFrac = 1e-10

// pcaSolve runs kernel PCA with the dense solver or the iterative one
// (falling back to dense when the iteration fails to converge — correctness
// over speed, since dense always succeeds on a symmetric matrix).
func pcaSolve(kC *linalg.Matrix, rank int, iterative bool, warm *linalg.Matrix) (phi, u *linalg.Matrix, lam []float64, err error) {
	if iterative {
		vals, vecs, ierr := linalg.TopEigenWarm(kC, rank, linalg.EigenOptions{Warm: warm, DropBelow: keepFrac})
		if ierr == nil {
			return phiFromEigen(kC.Rows, vals, vecs)
		}
		if !errors.Is(ierr, linalg.ErrNotConverged) {
			return nil, nil, nil, ierr
		}
	}
	return kernelPCA(kC, rank)
}

// fitModel finishes training from the per-view kernel-PCA outputs: the CCA
// fit in reduced space, both training projections, and model assembly.
// xOwned must be caller-owned (it is stored in the model uncopied).
func fitModel(xOwned *linalg.Matrix, tauX, tauY float64, rowMeansX []float64, grandX float64,
	phiX, ux *linalg.Matrix, lamx []float64, phiY *linalg.Matrix, opt Options) (*Model, error) {
	dims := opt.Dims
	if dims <= 0 || dims > phiX.Cols || dims > phiY.Cols {
		dims = phiX.Cols
		if phiY.Cols < dims {
			dims = phiY.Cols
		}
	}
	stopCCA := obs.Span("kcca.train.cca")
	cm, err := cca.Fit(phiX, phiY, dims, opt.Reg)
	stopCCA()
	if err != nil {
		return nil, err
	}

	stopProj := obs.Span("kcca.train.project")
	queryProj := cm.ProjectAllX(phiX)
	perfProj := cm.ProjectAllY(phiY)
	stopProj()
	return &Model{
		X:            xOwned,
		TauX:         tauX,
		TauY:         tauY,
		QueryProj:    queryProj,
		PerfProj:     perfProj,
		Correlations: cm.Correlations,
		rowMeansX:    rowMeansX,
		grandX:       grandX,
		ux:           ux,
		lamx:         lamx,
		ccaModel:     cm,
	}, nil
}

// kernelPCA returns Phi = U·Λ^{1/2} for the top-r eigenpairs of the
// centered kernel matrix, dropping components with negligible eigenvalues.
func kernelPCA(k *linalg.Matrix, r int) (phi, u *linalg.Matrix, lam []float64, err error) {
	vals, vecs, err := linalg.TopEigen(k, r)
	if err != nil {
		return nil, nil, nil, err
	}
	return phiFromEigen(k.Rows, vals, vecs)
}

// phiFromEigen builds Phi = U·Λ^{1/2} from eigenpairs (descending order),
// applying the keep threshold that drops numerically insignificant
// components. Shared by the dense and iterative solver paths so both apply
// an identical significance rule.
func phiFromEigen(n int, vals []float64, vecs *linalg.Matrix) (phi, u *linalg.Matrix, lam []float64, err error) {
	keep := 0
	tol := keepFrac * math.Max(vals[0], 1)
	for keep < len(vals) && vals[keep] > tol {
		keep++
	}
	if keep == 0 {
		return nil, nil, nil, ErrDegenerate
	}
	vals = vals[:keep]
	vecs = vecs.SliceCols(0, keep)
	phi = linalg.NewMatrix(n, keep)
	for j := 0; j < keep; j++ {
		s := math.Sqrt(vals[j])
		for i := 0; i < n; i++ {
			phi.Set(i, j, vecs.At(i, j)*s)
		}
	}
	return phi, vecs, vals, nil
}

// ProjectQuery maps a new query feature vector into the query projection
// (the coordinates used for nearest-neighbor lookup in Fig. 7).
func (m *Model) ProjectQuery(q []float64) []float64 {
	proj, _ := m.ProjectQueryKernel(q)
	return proj
}

// ProjectQueryKernel projects q and also returns its largest raw kernel
// evaluation against the training set (see MaxKernel), computing the
// cross-kernel vector exactly once — the prediction hot path needs both and
// the O(N·d) kernel vector dominates its cost. The vector lives in a pooled
// scratch buffer, so the only allocations are the two returned coordinate
// slices.
func (m *Model) ProjectQueryKernel(q []float64) (proj []float64, maxK float64) {
	defer obs.Span("kcca.project_query")()
	kq := kernels.GetScratch(m.X.Rows)
	defer kernels.PutScratch(kq)
	kernels.CrossVectorInto(*kq, m.X, q, m.TauX)
	for _, v := range *kq {
		if v > maxK {
			maxK = v
		}
	}
	kernels.CenterCrossInto(*kq, *kq, m.rowMeansX, m.grandX)
	// φq = Λ^{−1/2} Uᵀ kq.
	phi := m.ux.TMulVec(*kq)
	for j := range phi {
		phi[j] /= math.Sqrt(m.lamx[j])
	}
	return m.ccaModel.ProjectX(phi), maxK
}

// MaxKernel returns the largest kernel evaluation between q and any
// training point — a raw in-distribution score in (0, 1]. Values near zero
// mean the query is far from everything the model has seen, in which case
// its projection coordinates are meaningless (the kernel vector is
// numerically zero) and downstream confidence should collapse.
func (m *Model) MaxKernel(q []float64) float64 {
	kq := kernels.CrossVector(m.X, q, m.TauX)
	best := 0.0
	for _, v := range kq {
		if v > best {
			best = v
		}
	}
	return best
}

// Dims returns the dimensionality of the canonical projections.
func (m *Model) Dims() int { return m.QueryProj.Cols }

// N returns the number of training queries.
func (m *Model) N() int { return m.QueryProj.Rows }
