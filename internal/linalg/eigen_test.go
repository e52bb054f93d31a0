package linalg

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/statutil"
	"repro/internal/testutil"
)

// centeredGaussKernel builds the kind of matrix kcca.Train hands to the
// dense solver: the double-centered Gaussian kernel of n points drawn
// around a few templates, so the spectrum has a handful of large
// eigenvalues above a long tail of near-ties.
func centeredGaussKernel(n int) *Matrix {
	const dim, templates = 12, 8
	rng := statutil.NewRNG(int64(n), "eigen-kernel")
	centers := NewMatrix(templates, dim)
	for i := range centers.Data {
		centers.Data[i] = rng.NormFloat64() * 3
	}
	x := NewMatrix(n, dim)
	for i := 0; i < n; i++ {
		c := centers.Row(rng.Intn(templates))
		for j, v := range c {
			x.Set(i, j, v+0.3*rng.NormFloat64())
		}
	}
	k := NewMatrix(n, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d := 0.0
			for t, v := range x.Row(i) {
				diff := v - x.At(j, t)
				d += diff * diff
			}
			k.Set(i, j, d)
			sum += d
		}
	}
	tau := sum/float64(n*n) + 1
	for i := range k.Data {
		k.Data[i] = math.Exp(-k.Data[i] / tau)
	}
	rowMeans := make([]float64, n)
	grand := 0.0
	for i := range rowMeans {
		rowMeans[i] = Mean(k.Row(i))
		grand += rowMeans[i]
	}
	grand /= float64(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			k.Set(i, j, k.At(i, j)-rowMeans[i]-rowMeans[j]+grand)
		}
	}
	return k
}

func bitsEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v, reference %v", what, i, got[i], want[i])
		}
	}
}

// TestSymEigMatchesReference holds the transposed-workspace solver to the
// column-walking EISPACK transcription (refSymEig) bit for bit, at every
// worker count, and TopEigen to the leading columns of the same result.
func TestSymEigMatchesReference(t *testing.T) {
	type input struct {
		name string
		a    *Matrix // what SymEig sees
		ref  *Matrix // what the reference solves (nil: a)
	}
	var inputs []input
	for _, n := range []int{1, 2, 3, 150, 500, 800} {
		if n == 800 && testutil.RaceEnabled {
			continue
		}
		inputs = append(inputs, input{name: fmt.Sprintf("kernel/n=%d", n), a: centeredGaussKernel(n)})
	}
	for _, n := range []int{6, 40, 150} {
		x := randEquivMatrix(int64(n), n+10, n)
		inputs = append(inputs, input{name: fmt.Sprintf("spd/n=%d", n), a: x.TMul(x)})
	}
	// Exact-zero trailing rows and columns drive tred2's scale == 0 branch.
	x := randEquivMatrix(5, 40, 30)
	zeroTail := x.TMul(x)
	for i := 0; i < 30; i++ {
		for j := 0; j < 30; j++ {
			if i >= 22 || j >= 22 {
				zeroTail.Set(i, j, 0)
			}
		}
	}
	inputs = append(inputs, input{name: "zero-tail", a: zeroTail})
	// NaN garbage above the diagonal must never be read.
	clean := centeredGaussKernel(60)
	garbage := clean.Clone()
	for i := 0; i < garbage.Rows; i++ {
		for j := i + 1; j < garbage.Cols; j++ {
			garbage.Set(i, j, math.NaN())
		}
	}
	inputs = append(inputs, input{name: "nan-upper", a: garbage, ref: clean})

	defer parallel.SetMaxProcs(parallel.SetMaxProcs(1))
	for _, in := range inputs {
		parallel.SetMaxProcs(1)
		ra := in.ref
		if ra == nil {
			ra = in.a
		}
		want, err := refSymEig(ra)
		if err != nil {
			t.Fatalf("%s: reference: %v", in.name, err)
		}
		for _, w := range equivWorkerCounts() {
			parallel.SetMaxProcs(w)
			got, err := SymEig(in.a)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", in.name, w, err)
			}
			what := fmt.Sprintf("%s workers=%d", in.name, w)
			bitsEqual(t, what+" values", got.Values, want.Values)
			bitsEqual(t, what+" vectors", got.Vectors.Data, want.Vectors.Data)
		}
		n := in.a.Rows
		r := (n + 1) / 3
		vals, vecs, err := TopEigen(in.a, r)
		if err != nil {
			t.Fatalf("%s: TopEigen: %v", in.name, err)
		}
		if vecs.Rows != n || vecs.Cols != r {
			t.Fatalf("%s: TopEigen vectors are %dx%d, want %dx%d", in.name, vecs.Rows, vecs.Cols, n, r)
		}
		bitsEqual(t, in.name+" TopEigen values", vals, want.Values[:r])
		bitsEqual(t, in.name+" TopEigen vectors", vecs.Data, want.Vectors.SliceCols(0, r).Data)
	}
}

// TestSymEigForCalls guards against per-rotation pool dispatch: one solve
// may enter parallel.For at most twice per Householder step.
func TestSymEigForCalls(t *testing.T) {
	const n = 150
	a := centeredGaussKernel(n)
	calls := obs.GetCounter("parallel.for.calls")
	before := calls.Value()
	if _, err := SymEig(a); err != nil {
		t.Fatal(err)
	}
	if grew := calls.Value() - before; grew > 2*n {
		t.Fatalf("SymEig at n=%d made %d parallel.For calls, want at most %d", n, grew, 2*n)
	}
}

// BenchmarkSymEigKernel times the dense solve on the matrices kcca.Train
// actually solves, at serving window sizes.
func BenchmarkSymEigKernel(b *testing.B) {
	for _, n := range []int{150, 500, 800} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			a := centeredGaussKernel(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := SymEig(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
