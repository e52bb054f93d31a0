// KD-tree index over the projected training points. The paper's Fig. 7
// prediction step is a kNN lookup in the ≤15-dimensional KCCA query
// projection; the flat scan in Nearest/Search is O(N·rank) per query, which
// grows linearly with the training window. An Index is built once per model
// generation at retrain-install time, is immutable afterwards (so serving
// reads are lock-free, matching the atomic hot-swap discipline of
// core.SlidingPredictor and the shard slots), and answers the same queries
// in roughly O(log N) for the low-dimensional projections it is built for.
//
// The index is EXACT, not approximate: for every supported input it returns
// bit-identical (distance, index) neighbor sets to the flat scan, including
// the total (distance, index) tie-break order with NaN-last semantics. That
// guarantee rests on three design rules:
//
//  1. Candidate distances are computed by the same linalg calls on the same
//     original rows as the flat scan (for Cosine, the unit-normalized copies
//     steer the tree descent but never produce a reported distance), so every
//     distance the caller sees is the same float64 the scan would produce.
//  2. Pruning bounds are slackened by margins (indexSlackRel/indexSlackAbs)
//     orders of magnitude larger than the worst-case floating-point error of
//     a distance evaluation at the supported dimensionality, so a subtree is
//     only skipped when no point in it can enter the result under the total
//     order — equal-distance points are never pruned (strict inequality), so
//     index tie-breaks survive.
//  3. Points the tree geometry cannot represent (non-finite or huge
//     coordinates, zero-norm rows under Cosine) are kept out of the tree and
//     scanned linearly as stragglers, with exactly the flat scan's distance
//     calls; queries the tree cannot bound (non-finite coordinates, zero-norm
//     under Cosine) fall back to the flat scan wholesale.
//
// Fallback conditions (the whole index degrades to the flat scan, still
// exact): fewer than MinPoints rows, more than maxIndexDims columns, zero
// columns, or a per-query condition above. knn.index.* obs metrics count
// builds, searches, fallbacks, and nodes/points visited.
package knn

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Index metrics: builds and their node counts, tree searches versus
// flat-scan fallbacks, and how much of the tree each search actually
// touched (the sub-linearity headline).
var (
	indexBuilds       = obs.GetCounter("knn.index.builds")
	indexSearches     = obs.GetCounter("knn.index.searches")
	indexFallbacks    = obs.GetCounter("knn.index.fallbacks")
	indexNodes        = obs.GetHistogram("knn.index.nodes")
	indexNodesVisited = obs.GetHistogram("knn.index.nodes_visited")
	indexPointsScored = obs.GetHistogram("knn.index.points_visited")
)

const (
	// DefaultIndexMinPoints is the training-set size below which NewIndex
	// does not build a tree: the flat scan over a few cache lines beats tree
	// traversal overhead there, and correctness is identical either way.
	DefaultIndexMinPoints = 64
	// defaultLeafSize is the leaf bucket size: leaves are scanned linearly,
	// so a handful of points per leaf keeps the tree shallow and the scans
	// cache-friendly.
	defaultLeafSize = 16
	// maxIndexDims bounds the dimensionality the exactness slack margins are
	// proven for (the floating-point error of a d-dimensional distance grows
	// with d; the slacks below cover d ≤ 512 with >100× headroom — KCCA
	// projections are ≤15). Wider point sets fall back to the flat scan.
	maxIndexDims = 512
	// maxIndexCoord gates coordinates admitted into the tree. Within this
	// magnitude, squared differences and dot products of up to maxIndexDims
	// terms cannot overflow to Inf or NaN, so every in-tree distance is a
	// finite float64 and the pruning arithmetic is total. Rows beyond it are
	// stragglers; queries beyond it fall back to the flat scan.
	maxIndexCoord = 1e150

	// indexSlackRel shrinks the axis-gap lower bound before comparing it to
	// the current kth-best distance: prune only when gap·(1−slack) still
	// exceeds the bound. A d-dimensional Euclidean distance evaluation has
	// relative rounding error below (d/2+2)·2⁻⁵³ ≈ 3e-14 at d = 512; 1e-9 is
	// five orders of magnitude more conservative, at a pruning-power cost
	// that is unmeasurable.
	indexSlackRel = 1e-9
	// indexSlackAbs pads the Cosine pruning bound. Unit-vector coordinates
	// are ≤1 in magnitude, so normalization and distance rounding errors are
	// absolute at eps scale (≈(d+6)·2⁻⁵³ ≤ 1.2e-13 at d = 512); the 1e-9 gap
	// haircut plus this additive pad dominate them by >10³.
	indexSlackAbs = 1e-12
	// indexSlackUnderflow pads the Euclidean pruning bound against gradual
	// underflow: for coordinate differences below ~1.5e-154 the squared
	// terms inside Dist flush to subnormals or zero, so the computed
	// distance can sit up to √(d·minSubnormal) ≈ 3.5e-153 (d = 512) BELOW
	// the axis gap — a purely relative slack misses that (found by
	// FuzzKDTree: two subnormal points both at computed distance 0 with a
	// nonzero gap between them, pruning the lower-index tie). 1e-140 covers
	// the deflation with 10¹² headroom and is far below any distance a
	// caller could tell apart from zero.
	indexSlackUnderflow = 1e-140
)

// IndexConfig tunes index construction. The zero value selects defaults.
type IndexConfig struct {
	// MinPoints is the smallest point count for which a tree is built;
	// smaller sets stay on the flat scan (0 = DefaultIndexMinPoints).
	MinPoints int
	// LeafSize is the leaf bucket size (0 = 16).
	LeafSize int
}

// IndexStats is a snapshot of an Index's shape and usage counters.
type IndexStats struct {
	// Flat reports a whole-index fallback: no tree was built and every
	// search runs the flat scan. FlatReason says why.
	Flat       bool
	FlatReason string
	// Points is the total candidate count; TreePoints of them are in the
	// tree and Stragglers are scanned linearly alongside it.
	Points     int
	TreePoints int
	Stragglers int
	// Nodes and Leaves describe the built tree (0 when Flat).
	Nodes  int
	Leaves int
	// MinPoints and LeafSize echo the resolved configuration.
	MinPoints int
	LeafSize  int
	// Searches counts tree-served queries; FlatSearches counts queries this
	// index answered with the flat scan (whole-index or per-query fallback).
	Searches     int64
	FlatSearches int64
	// NodesVisited and PointsScored total the tree nodes descended into and
	// candidate points distance-scored across all tree searches.
	NodesVisited int64
	PointsScored int64
}

// node is one KD-tree node. Leaves (axis < 0) own order[lo:hi]; internal
// nodes split on axis at value split, with the left child holding
// coordinates ≤ split and the right child ≥ split.
type node struct {
	split       float64
	axis        int32
	left, right int32
	lo, hi      int32
}

// Index is an immutable exact k-nearest-neighbor index over one point set
// under one metric. Build with NewIndex once per model generation; all
// methods are safe for concurrent use and lock-free.
type Index struct {
	metric Distance
	points *linalg.Matrix // original rows: distance evaluation + fallback
	// coords is the geometry the tree descends: points itself for
	// Euclidean, unit-normalized copies for Cosine (where the cosine
	// distance of unit vectors is ‖â−b̂‖²/2, making axis gaps a valid
	// lower bound).
	coords     *linalg.Matrix
	nodes      []node
	order      []int // permutation of in-tree row indices; leaves own ranges
	stragglers []int // rows excluded from the tree, scanned linearly
	leaves     int
	flatReason string // non-empty → whole-index flat fallback
	minPoints  int
	leafSize   int

	searches     atomic.Int64
	flatSearches atomic.Int64
	nodesVisited atomic.Int64
	pointsScored atomic.Int64
}

// NewIndex builds an exact KD-tree index over the rows of points under the
// metric, with default configuration. It never fails: inputs the tree
// cannot serve yield an index that answers every query with the flat scan.
func NewIndex(points *linalg.Matrix, metric Distance) *Index {
	return NewIndexWith(points, metric, IndexConfig{})
}

// NewIndexWith is NewIndex with explicit configuration.
func NewIndexWith(points *linalg.Matrix, metric Distance, cfg IndexConfig) *Index {
	if cfg.MinPoints <= 0 {
		cfg.MinPoints = DefaultIndexMinPoints
	}
	if cfg.LeafSize <= 0 {
		cfg.LeafSize = defaultLeafSize
	}
	ix := &Index{
		metric:    metric,
		points:    points,
		minPoints: cfg.MinPoints,
		leafSize:  cfg.LeafSize,
	}
	switch {
	case points.Rows < cfg.MinPoints:
		ix.flatReason = fmt.Sprintf("fewer than %d points", cfg.MinPoints)
	case points.Cols == 0:
		ix.flatReason = "zero-dimensional points"
	case points.Cols > maxIndexDims:
		ix.flatReason = fmt.Sprintf("more than %d dimensions", maxIndexDims)
	}
	if ix.flatReason != "" {
		return ix
	}
	ix.build()
	indexBuilds.Inc()
	indexNodes.Observe(float64(len(ix.nodes)))
	return ix
}

// treeRow reports whether row i of points can live in the tree: all
// coordinates finite and within the overflow-safe magnitude, and (for
// Cosine) a usable positive norm.
func (ix *Index) treeRow(i int) bool {
	if !coordsUsable(ix.points.Row(i)) {
		return false
	}
	if ix.metric == Cosine {
		return linalg.Norm(ix.points.Row(i)) > 0
	}
	return true
}

// coordsUsable reports whether every coordinate is finite and within
// maxIndexCoord (NaN fails the comparison, so it is rejected too).
func coordsUsable(v []float64) bool {
	for _, x := range v {
		if !(math.Abs(x) <= maxIndexCoord) {
			return false
		}
	}
	return true
}

// build partitions rows into tree points and stragglers, materializes the
// tree geometry, and constructs the node array.
func (ix *Index) build() {
	n := ix.points.Rows
	ix.order = make([]int, 0, n)
	for i := 0; i < n; i++ {
		if ix.treeRow(i) {
			ix.order = append(ix.order, i)
		} else {
			ix.stragglers = append(ix.stragglers, i)
		}
	}
	if len(ix.order) == 0 {
		return // every search scans the stragglers (= the whole set)
	}
	if ix.metric == Cosine {
		// Unit-normalized copies: p̃[j] = p[j]/‖p‖, built with the same Norm
		// the distance function uses. These steer descent and bound pruning
		// only — reported distances always come from the original rows.
		ix.coords = linalg.NewMatrix(n, ix.points.Cols)
		for _, i := range ix.order {
			row, norm := ix.points.Row(i), linalg.Norm(ix.points.Row(i))
			out := ix.coords.Row(i)
			for j, x := range row {
				out[j] = x / norm
			}
		}
	} else {
		ix.coords = ix.points
	}
	ix.nodes = make([]node, 0, 2*len(ix.order)/ix.leafSize+1)
	ix.buildNode(0, len(ix.order))
}

// buildNode builds the subtree over order[lo:hi] and returns its node
// index. Splits choose the axis of greatest spread (ties to the lowest
// axis) and cut at the median under the deterministic (coordinate, row)
// order, so identical inputs always build identical trees.
func (ix *Index) buildNode(lo, hi int) int32 {
	id := int32(len(ix.nodes))
	if hi-lo <= ix.leafSize {
		ix.nodes = append(ix.nodes, node{axis: -1, lo: int32(lo), hi: int32(hi)})
		ix.leaves++
		return id
	}
	axis := 0
	bestSpread := -1.0
	for a := 0; a < ix.coords.Cols; a++ {
		min, max := math.Inf(1), math.Inf(-1)
		for _, i := range ix.order[lo:hi] {
			c := ix.coords.Row(i)[a]
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		if spread := max - min; spread > bestSpread {
			bestSpread, axis = spread, a
		}
	}
	seg := ix.order[lo:hi]
	sort.Slice(seg, func(i, j int) bool {
		ci, cj := ix.coords.Row(seg[i])[axis], ix.coords.Row(seg[j])[axis]
		if ci != cj {
			return ci < cj
		}
		return seg[i] < seg[j]
	})
	mid := (lo + hi) / 2
	ix.nodes = append(ix.nodes, node{axis: int32(axis), split: ix.coords.Row(ix.order[mid])[axis]})
	left := ix.buildNode(lo, mid)
	right := ix.buildNode(mid, hi)
	ix.nodes[id].left, ix.nodes[id].right = left, right
	return id
}

// Metric returns the distance metric the index was built for.
func (ix *Index) Metric() Distance { return ix.metric }

// Len returns the number of indexed points (tree points + stragglers).
func (ix *Index) Len() int { return ix.points.Rows }

// Flat reports whether the whole index is a flat-scan fallback.
func (ix *Index) Flat() bool { return ix.flatReason != "" || ix.nodes == nil }

// Stats snapshots the index shape and usage counters.
func (ix *Index) Stats() IndexStats {
	reason := ix.flatReason
	if reason == "" && ix.nodes == nil {
		reason = "no tree-representable points"
	}
	return IndexStats{
		Flat:         ix.Flat(),
		FlatReason:   reason,
		Points:       ix.points.Rows,
		TreePoints:   len(ix.order),
		Stragglers:   len(ix.stragglers),
		Nodes:        len(ix.nodes),
		Leaves:       ix.leaves,
		MinPoints:    ix.minPoints,
		LeafSize:     ix.leafSize,
		Searches:     ix.searches.Load(),
		FlatSearches: ix.flatSearches.Load(),
		NodesVisited: ix.nodesVisited.Load(),
		PointsScored: ix.pointsScored.Load(),
	}
}

// Nearest returns the k nearest indexed rows to q, bit-identical to
// Nearest(points, q, k, metric) on the same point set: same (distance,
// index) values in the same total order, NaN-last.
func (ix *Index) Nearest(q []float64, k int) ([]Neighbor, error) {
	defer obs.Span("knn.search")()
	if err := ix.validate(len(q), k); err != nil {
		return nil, err
	}
	searchQueries.Inc()
	return ix.nearestOne(q, k), nil
}

// Search answers a batch of queries, row i of the result holding the k
// nearest neighbors of queries.Row(i) — positionally and bit-identical to
// Search(points, queries, k, metric). Queries fan out through
// parallel.For like the flat batch path.
func (ix *Index) Search(queries *linalg.Matrix, k int) ([][]Neighbor, error) {
	defer obs.Span("knn.search")()
	if queries.Cols != ix.points.Cols {
		return nil, fmt.Errorf("%w: queries have %d dims, points have %d", ErrDimension, queries.Cols, ix.points.Cols)
	}
	if err := ix.validate(queries.Cols, k); err != nil {
		return nil, err
	}
	searchQueries.Add(int64(queries.Rows))
	out := make([][]Neighbor, queries.Rows)
	parallel.For(queries.Rows, 1, func(lo, hi int) {
		for qi := lo; qi < hi; qi++ {
			out[qi] = ix.nearestOne(queries.Row(qi), k)
		}
	})
	return out, nil
}

// validate mirrors the flat scan's error contract exactly.
func (ix *Index) validate(qDims, k int) error {
	if ix.points.Rows == 0 {
		return ErrNoPoints
	}
	if k <= 0 {
		return ErrBadK
	}
	if qDims != ix.points.Cols {
		return fmt.Errorf("%w: query has %d dims, points have %d", ErrDimension, qDims, ix.points.Cols)
	}
	return nil
}

// queryUsable reports whether the tree can bound this query: coordinates
// finite and within magnitude, plus (Cosine) a positive norm. qn is the
// query norm when the metric is Cosine.
func (ix *Index) queryUsable(q []float64, qn float64) bool {
	if !coordsUsable(q) {
		return false
	}
	if ix.metric == Cosine {
		return qn > 0
	}
	return true
}

// nearestOne answers one validated query (k already known positive, dims
// matching). It clamps k, picks tree or fallback, and merges stragglers.
func (ix *Index) nearestOne(q []float64, k int) []Neighbor {
	n := ix.points.Rows
	if k > n {
		k = n
	}
	var qn float64
	if ix.metric == Cosine {
		qn = linalg.Norm(q)
	}
	if ix.nodes == nil || !ix.queryUsable(q, qn) {
		indexFallbacks.Inc()
		ix.flatSearches.Add(1)
		searchCandidates.Observe(float64(n))
		return scanNearest(ix.points, q, qn, k, ix.metric)
	}
	indexSearches.Inc()
	ix.searches.Add(1)

	s := getTreeSearch()
	defer putTreeSearch(s)
	s.ix, s.q, s.qn, s.k = ix, q, qn, k
	s.heap = s.heap[:0]
	if ix.metric == Cosine {
		// Descend in the unit-normalized geometry the tree was built over.
		s.tq = append(s.tq[:0], q...)
		for j := range s.tq {
			s.tq[j] /= qn
		}
	} else {
		s.tq = append(s.tq[:0], q...)
	}
	s.nodes, s.scored = 0, 0
	s.walk(0)
	ix.nodesVisited.Add(int64(s.nodes))
	ix.pointsScored.Add(int64(s.scored))
	indexNodesVisited.Observe(float64(s.nodes))
	indexPointsScored.Observe(float64(s.scored))
	searchCandidates.Observe(float64(s.scored + len(ix.stragglers)))

	// The heap holds the k best tree points; stragglers were never in the
	// tree, so score them with the flat scan's exact distance calls and
	// merge under the same total order.
	out := make([]Neighbor, len(s.heap), len(s.heap)+len(ix.stragglers))
	copy(out, s.heap)
	for _, i := range ix.stragglers {
		out = append(out, Neighbor{Index: i, Distance: pointDistance(ix.points.Row(i), q, qn, ix.metric)})
	}
	ns := neighborSlice(out)
	sort.Sort(&ns)
	if len(out) > k {
		out = out[:k:k]
	}
	return out
}

// pointDistance is the one distance evaluation of the package: the flat
// scan, the tree's candidate scoring, and the straggler merge all call it,
// so every reported distance is the identical float64 no matter which path
// produced it. qn is Norm(q), hoisted once per query (for Cosine).
func pointDistance(p, q []float64, qn float64, metric Distance) float64 {
	if metric == Cosine {
		return linalg.CosineDistanceTo(p, q, qn)
	}
	return linalg.Dist(p, q)
}

// scanNearest is the flat scan over all rows: rank every candidate under
// the total (distance, index) order and return the k best. It is the shared
// serial kernel behind Nearest, Search, and every Index fallback.
func scanNearest(points *linalg.Matrix, q []float64, qn float64, k int, metric Distance) []Neighbor {
	n := points.Rows
	scratch := getNeighbors(n)
	defer putNeighbors(scratch)
	all := *scratch
	for i := 0; i < n; i++ {
		all[i] = Neighbor{Index: i, Distance: pointDistance(points.Row(i), q, qn, metric)}
	}
	sort.Sort(scratch)
	return append(make([]Neighbor, 0, k), all[:k]...)
}

// treeSearch is the pooled per-query state of one tree descent.
type treeSearch struct {
	ix *Index
	q  []float64 // original query (distance evaluation)
	tq []float64 // tree-space query (normalized under Cosine)
	qn float64
	k  int
	// heap is a max-heap under the (distance, index) total order: heap[0]
	// is the current kth-best (worst retained) neighbor.
	heap   []Neighbor
	nodes  int
	scored int
}

var treeSearchPool = sync.Pool{New: func() any { return new(treeSearch) }}

func getTreeSearch() *treeSearch  { return treeSearchPool.Get().(*treeSearch) }
func putTreeSearch(s *treeSearch) { s.ix, s.q = nil, nil; treeSearchPool.Put(s) }

// walk descends the subtree at node ni, nearer child first, pruning the
// farther child only when the slackened axis gap proves no point beyond it
// can enter the heap.
func (s *treeSearch) walk(ni int32) {
	nd := &s.ix.nodes[ni]
	s.nodes++
	if nd.axis < 0 {
		for _, pi := range s.ix.order[nd.lo:nd.hi] {
			s.scored++
			s.push(Neighbor{Index: pi, Distance: pointDistance(s.ix.points.Row(pi), s.q, s.qn, s.ix.metric)})
		}
		return
	}
	diff := s.tq[nd.axis] - nd.split
	near, far := nd.left, nd.right
	if diff >= 0 {
		near, far = nd.right, nd.left
	}
	s.walk(near)
	if !s.prune(math.Abs(diff)) {
		s.walk(far)
	}
}

// prune reports whether the far child behind an axis gap of gap can be
// skipped. It must never return true when any point beyond the gap could
// displace the current kth-best under the total order — hence the strict
// inequalities (equal-distance, smaller-index candidates stay reachable)
// and the slack margins absorbing floating-point rounding (see the package
// comment on exactness).
func (s *treeSearch) prune(gap float64) bool {
	if len(s.heap) < s.k {
		return false
	}
	worst := s.heap[0].Distance
	if s.ix.metric == Cosine {
		// Unit vectors: cosine distance = ‖â−b̂‖²/2 ≥ gap²/2.
		g := gap - indexSlackRel
		return g > 0 && 0.5*g*g > worst*(1+indexSlackRel)+indexSlackAbs
	}
	return gap*(1-indexSlackRel)-indexSlackUnderflow > worst
}

// push offers one scored candidate to the bounded max-heap.
func (s *treeSearch) push(nb Neighbor) {
	h := s.heap
	if len(h) < s.k {
		h = append(h, nb)
		i := len(h) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !less(h[p], h[i]) {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
		s.heap = h
		return
	}
	if !less(nb, h[0]) {
		return
	}
	h[0] = nb
	i := 0
	for {
		l, r, top := 2*i+1, 2*i+2, i
		if l < len(h) && less(h[top], h[l]) {
			top = l
		}
		if r < len(h) && less(h[top], h[r]) {
			top = r
		}
		if top == i {
			break
		}
		h[i], h[top] = h[top], h[i]
		i = top
	}
}
