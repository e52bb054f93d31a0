package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// workerCounts is the sweep used across the equivalence suites.
func workerCounts() []int {
	return []int{1, 2, 7, runtime.NumCPU()}
}

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, w := range workerCounts() {
		defer SetMaxProcs(SetMaxProcs(w))
		for _, n := range []int{0, 1, 7, 64, 1000} {
			for _, grain := range []int{1, 3, 64, 4096} {
				hits := make([]int32, n)
				For(n, grain, func(lo, hi int) {
					if lo < 0 || hi > n || lo > hi {
						t.Fatalf("bad range [%d,%d) for n=%d", lo, hi, n)
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("w=%d n=%d grain=%d: index %d hit %d times", w, n, grain, i, h)
					}
				}
			}
		}
	}
}

func TestForSerialFallbackRunsOnCaller(t *testing.T) {
	// With n <= grain the body must run inline exactly once, so writes need
	// no synchronization at all.
	calls := 0
	For(10, 10, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 10 {
			t.Fatalf("serial fallback got [%d,%d), want [0,10)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("serial fallback ran %d times", calls)
	}
	defer SetMaxProcs(SetMaxProcs(1))
	calls = 0
	For(1000, 1, func(lo, hi int) { calls++ })
	if calls != 1 {
		t.Fatalf("one-worker fallback chunked the range (%d calls)", calls)
	}
}

func TestDoRunsAll(t *testing.T) {
	var a, b, c atomic.Int32
	Do()
	Do(func() { a.Add(1) })
	Do(func() { a.Add(1) }, func() { b.Add(1) }, func() { c.Add(1) })
	if a.Load() != 2 || b.Load() != 1 || c.Load() != 1 {
		t.Fatalf("Do counts: %d %d %d", a.Load(), b.Load(), c.Load())
	}
}

func TestNestedForDoesNotDeadlock(t *testing.T) {
	// Nested parallelism must degrade gracefully (the caller runs the chunks
	// itself when the process-wide helper cap is reached), never deadlock.
	var total atomic.Int64
	For(64, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			For(64, 8, func(lo2, hi2 int) {
				total.Add(int64(hi2 - lo2))
			})
		}
	})
	if total.Load() != 64*64 {
		t.Fatalf("nested For covered %d indexes, want %d", total.Load(), 64*64)
	}
}

func TestSetMaxProcs(t *testing.T) {
	old := SetMaxProcs(3)
	if MaxProcs() != 3 {
		t.Fatalf("MaxProcs=%d after SetMaxProcs(3)", MaxProcs())
	}
	if prev := SetMaxProcs(0); prev != 3 {
		t.Fatalf("SetMaxProcs returned %d, want 3", prev)
	}
	if MaxProcs() != runtime.GOMAXPROCS(0) {
		t.Fatalf("MaxProcs=%d, want GOMAXPROCS=%d", MaxProcs(), runtime.GOMAXPROCS(0))
	}
	if prev := SetMaxProcs(-5); prev != 0 {
		t.Fatalf("negative SetMaxProcs returned %d, want 0", prev)
	}
	SetMaxProcs(old)
}

func TestGrainFor(t *testing.T) {
	if g := GrainFor(100, 1000); g != 10 {
		t.Fatalf("GrainFor(100,1000)=%d", g)
	}
	if g := GrainFor(0, 8); g != 8 {
		t.Fatalf("GrainFor(0,8)=%d", g)
	}
	if g := GrainFor(1<<20, 10); g != 1 {
		t.Fatalf("GrainFor huge perItem = %d, want 1", g)
	}
}

// TestForStress hammers the pool from many concurrent callers; run under
// -race this is the core data-race check for the pool itself.
func TestForStress(t *testing.T) {
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			sums := make([]int64, 256)
			for rep := 0; rep < 50; rep++ {
				For(len(sums), 16, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						sums[i]++
					}
				})
			}
			for i, s := range sums {
				if s != 50 {
					t.Errorf("sums[%d]=%d, want 50", i, s)
					return
				}
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

// TestPoolGrowsAfterSmallStart is the regression test for the stale pool
// sizing bug: the pool used to be sized to GOMAXPROCS at the FIRST parallel
// call and never resized, so a pool born under GOMAXPROCS=1 (or a small
// SetMaxProcs override) permanently under-provisioned every later call.
// Here the pool is deliberately started 1-2 workers wide, the cap is then
// raised, and a rendezvous requires at least three chunk bodies to be in
// flight at once — impossible unless the pool grew.
func TestPoolGrowsAfterSmallStart(t *testing.T) {
	oldGMP := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(oldGMP)
	defer SetMaxProcs(SetMaxProcs(2))

	// First parallel call while narrow: the buggy pool froze its worker
	// count here.
	For(8, 1, func(lo, hi int) {})

	// Widen and demand real width. The rendezvous releases everyone once
	// three bodies are concurrently inside; with a frozen 1-worker pool only
	// the caller plus one worker can be inside simultaneously (queued and
	// inline helpers run strictly after the caller's own drain blocks), so
	// the timeout path fires.
	runtime.GOMAXPROCS(4)
	SetMaxProcs(4)
	if !reachesWidth(4, 3) {
		t.Fatalf("pool never reached width 3 after widening: stale pool sizing")
	}
	// At cap 4 every one of four single-index chunks must be in flight at
	// once: the caller plus three helpers.
	if !reachesWidth(4, 4) {
		t.Fatalf("For(4, 1) never had 4 bodies in flight at cap 4")
	}
}

// reachesWidth runs For(n, 1, ...) with a rendezvous that releases every
// body once width of them are inside at the same time. It reports whether
// that happened before a 5 s timeout.
func reachesWidth(n, width int) bool {
	var entered atomic.Int64
	var timedOut atomic.Bool
	release := make(chan struct{})
	var once sync.Once
	For(n, 1, func(lo, hi int) {
		if entered.Add(1) >= int64(width) {
			once.Do(func() { close(release) })
		}
		select {
		case <-release:
		case <-time.After(5 * time.Second):
			timedOut.Store(true)
		}
	})
	return !timedOut.Load()
}

// TestNoHelperOutlivesCall bursts nested calls from 8 goroutines, then
// checks that no helper is left running once every call has returned and
// that a following call gets its full width without any helper refused by
// the process-wide cap. A helper that outlived its call would hold a slot
// (or a queue entry) and silently serialize later calls.
func TestNoHelperOutlivesCall(t *testing.T) {
	defer SetMaxProcs(SetMaxProcs(4))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var total atomic.Int64
			for rep := 0; rep < 20; rep++ {
				For(16, 1, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						For(64, 8, func(lo2, hi2 int) {
							total.Add(int64(hi2 - lo2))
						})
					}
				})
			}
			if total.Load() != 20*16*64 {
				t.Errorf("nested burst covered %d indexes, want %d", total.Load(), 20*16*64)
			}
		}()
	}
	wg.Wait()
	if h := helpers.Load(); h != 0 {
		t.Fatalf("%d helpers still running after every call returned", h)
	}
	before := inlineRuns.Value()
	if !reachesWidth(4, 4) {
		t.Fatalf("For(4, 1) never had 4 bodies in flight at cap 4 after the burst")
	}
	if got := inlineRuns.Value(); got != before {
		t.Fatalf("parallel.pool.inline_runs grew by %d on an idle process", got-before)
	}
}
