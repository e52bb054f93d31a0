// Package parallel runs the numeric hot paths (kernel matrices, dense
// linear algebra, nearest-neighbor search, batch prediction) on several
// goroutines: a chunked parallel For loop and a Do for fan-out.
//
// Each For call starts its own helper goroutines, one fewer than the worker
// count (the caller works too), and waits for them before it returns; no
// task queue and no long-lived worker exist, so no helper outlives its
// call. A helper first takes a slot on one process-wide count of running
// helpers, capped at MaxProcs; when no slot is free the caller runs those
// chunks itself. Nested calls thus fall back toward serial instead of
// deadlocking, and the cap follows SetMaxProcs and GOMAXPROCS as they change.
//
// Determinism contract: For partitions [0, n) into fixed contiguous chunks
// and every index is processed by exactly one goroutine, so callers that
// write only to per-index (or per-chunk) outputs — and that keep each
// element's summation order identical to their serial loop — produce
// bit-for-bit the same result at every worker count. The equivalence tests
// in the numeric packages hold every parallelized kernel to that contract.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Metrics: single atomic updates, cheap enough to keep on permanently.
var (
	forCalls      = obs.GetCounter("parallel.for.calls")
	serialCalls   = obs.GetCounter("parallel.for.serial")
	chunksClaimed = obs.GetCounter("parallel.pool.chunks_claimed")
	// inlineRuns counts helpers a For call did not start because the
	// process-wide cap was reached; their chunks ran on the caller instead.
	inlineRuns = obs.GetCounter("parallel.pool.inline_runs")
)

var (
	maxProcs atomic.Int64 // when positive, overrides GOMAXPROCS as the worker cap
	helpers  atomic.Int64 // helper goroutines running in all For calls
)

// SetMaxProcs overrides the worker cap and returns the previous override
// (0 if none was set). Passing 0 restores the GOMAXPROCS default; passing 1
// forces every later For/Do onto the serial path. Tests sweep with:
//
//	defer parallel.SetMaxProcs(parallel.SetMaxProcs(7))
func SetMaxProcs(n int) int {
	if n < 0 {
		n = 0
	}
	return int(maxProcs.Swap(int64(n)))
}

// MaxProcs reports the effective worker cap: the SetMaxProcs override if
// one is set, otherwise GOMAXPROCS.
func MaxProcs() int {
	if n := maxProcs.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// tryAcquire takes a helper slot if fewer than limit helpers are running.
func tryAcquire(limit int) bool {
	for h := helpers.Load(); h < int64(limit); h = helpers.Load() {
		if helpers.CompareAndSwap(h, h+1) {
			return true
		}
	}
	return false
}

// For runs fn over the index range [0, n) in contiguous chunks of at most
// grain indexes. fn(lo, hi) must process exactly the half-open range
// [lo, hi). When n <= grain or only one worker is available the call
// degrades to fn(0, n) on the calling goroutine, exactly the serial path.
//
// fn must be safe to call concurrently for disjoint ranges; the ranges
// handed to it are always disjoint and cover [0, n) exactly once.
func For(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	forCalls.Inc()
	if grain < 1 {
		grain = 1
	}
	procs := MaxProcs()
	if procs <= 1 || n <= grain {
		serialCalls.Inc()
		fn(0, n)
		return
	}
	chunks := (n + grain - 1) / grain
	w := min(procs, chunks)

	var next atomic.Int64
	drain := func() {
		for {
			c := int(next.Add(1)) - 1
			if c >= chunks {
				return
			}
			chunksClaimed.Inc()
			lo := c * grain
			fn(lo, min(lo+grain, n))
		}
	}
	var wg sync.WaitGroup
	for i := 1; i < w; i++ {
		if !tryAcquire(procs) {
			inlineRuns.Add(int64(w - i))
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer helpers.Add(-1) // runs first: the slot is free before Wait returns
			drain()
		}()
	}
	// The caller drains too, so a call that got no helper still finishes.
	drain()
	wg.Wait()
}

// Do runs the functions concurrently and waits for all of them: the fan-out
// for a few heterogeneous tasks, such as the two kernel views of a KCCA fit.
func Do(fns ...func()) {
	For(len(fns), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fns[i]()
		}
	})
}

// GrainFor sizes a chunk so that it costs roughly targetOps units of work,
// given perItem units per index. It never returns less than 1. Callers use
// it to keep per-chunk work large enough to amortize scheduling:
//
//	parallel.For(rows, parallel.GrainFor(cols, 1<<15), body)
func GrainFor(perItem, targetOps int) int {
	return max(1, targetOps/max(1, perItem))
}
