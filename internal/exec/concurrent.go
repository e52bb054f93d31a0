package exec

import (
	"errors"
	"math"
	"sort"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// Simulator metrics: simulated-queries/sec is simQueries divided by the
// "exec.simulate" stage total in a snapshot.
var (
	simRuns        = obs.GetCounter("exec.simulate.runs")
	simQueries     = obs.GetCounter("exec.simulate.queries")
	simBatchSize   = obs.GetHistogram("exec.simulate.batch_queries")
	simMakespanSec = obs.GetHistogram("exec.simulate.makespan_sec")
)

// The paper predicts single-query-mode performance and uses the
// predictions to AVOID "extreme resource contention" between queries.
// SimulateConcurrent closes that loop: given per-query solo runtimes (the
// quantity the predictor outputs) and arrival times, it models what
// actually happens when queries share the machine, so workload managers
// can evaluate admission decisions end to end.
//
// The model is processor sharing with bounded multiprogramming: at most
// maxConcurrent queries run at once (zero = unbounded), later arrivals
// queue FIFO, and with k queries running each progresses at rate
// 1/k^interference. interference 0 models perfectly isolated queries;
// interference 1 models full contention (aggregate throughput fixed);
// values between model partially overlapping resource demands.

// ConcurrentOutcome reports a SimulateConcurrent run.
type ConcurrentOutcome struct {
	// Start and Completion give each query's admission and finish times,
	// indexed like the inputs.
	Start, Completion []float64
	// Makespan is the last completion time.
	Makespan float64
	// MaxRunning is the peak multiprogramming level observed.
	MaxRunning int
}

// Scenario is one admission-policy setting to evaluate: a multiprogramming
// bound and an interference exponent.
type Scenario struct {
	MaxConcurrent int
	Interference  float64
}

// SimulateScenarios evaluates many admission policies over the same
// workload, one SimulateConcurrent run per scenario, fanned out through
// parallel.For (each run reads the input slices and writes only its
// own outcome, so results are identical to a serial loop). Workload
// managers use it to sweep candidate multiprogramming levels in one call.
func SimulateScenarios(arrivalSec, soloSec []float64, scenarios []Scenario) ([]ConcurrentOutcome, error) {
	defer obs.Span("exec.simulate_scenarios")()
	outs := make([]ConcurrentOutcome, len(scenarios))
	errs := make([]error, len(scenarios))
	parallel.For(len(scenarios), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			outs[i], errs[i] = SimulateConcurrent(arrivalSec, soloSec, scenarios[i].MaxConcurrent, scenarios[i].Interference)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// SimulateConcurrent runs the processor-sharing simulation. arrivalSec and
// soloSec must have equal length; soloSec entries must be positive.
func SimulateConcurrent(arrivalSec, soloSec []float64, maxConcurrent int, interference float64) (ConcurrentOutcome, error) {
	defer obs.Span("exec.simulate")()
	n := len(arrivalSec)
	if n == 0 {
		return ConcurrentOutcome{}, errors.New("exec: no queries")
	}
	simRuns.Inc()
	simQueries.Add(int64(n))
	simBatchSize.Observe(float64(n))
	if len(soloSec) != n {
		return ConcurrentOutcome{}, errors.New("exec: arrival and solo lengths differ")
	}
	if interference < 0 || interference > 1 {
		return ConcurrentOutcome{}, errors.New("exec: interference must be in [0, 1]")
	}
	for i, s := range soloSec {
		if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			return ConcurrentOutcome{}, errors.New("exec: solo runtimes must be positive and finite")
		}
		if arrivalSec[i] < 0 || math.IsNaN(arrivalSec[i]) {
			return ConcurrentOutcome{}, errors.New("exec: arrivals must be nonnegative")
		}
	}

	// Process arrivals in time order, keeping original indexes.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return arrivalSec[order[a]] < arrivalSec[order[b]] })

	out := ConcurrentOutcome{
		Start:      make([]float64, n),
		Completion: make([]float64, n),
	}
	type running struct {
		idx       int
		remaining float64 // remaining solo-equivalent work
	}
	var active []running
	var queue []int
	next := 0 // next arrival (position in order)
	t := 0.0

	rate := func(k int) float64 {
		if k <= 1 {
			return 1
		}
		return 1 / math.Pow(float64(k), interference)
	}
	admit := func(idx int) {
		active = append(active, running{idx: idx, remaining: soloSec[idx]})
		out.Start[idx] = t
		if len(active) > out.MaxRunning {
			out.MaxRunning = len(active)
		}
	}

	for next < n || len(active) > 0 || len(queue) > 0 {
		// Admit queued queries into free slots.
		for len(queue) > 0 && (maxConcurrent <= 0 || len(active) < maxConcurrent) {
			admit(queue[0])
			queue = queue[1:]
		}
		// If nothing is running, jump to the next arrival.
		if len(active) == 0 {
			if next >= n {
				break
			}
			t = math.Max(t, arrivalSec[order[next]])
			idx := order[next]
			next++
			if maxConcurrent > 0 && len(active) >= maxConcurrent {
				queue = append(queue, idx)
			} else {
				admit(idx)
			}
			continue
		}
		// Time to the earliest completion at the current rate.
		r := rate(len(active))
		minRem := math.Inf(1)
		for _, a := range active {
			if a.remaining < minRem {
				minRem = a.remaining
			}
		}
		tComplete := t + minRem/r
		// Time to the next arrival.
		tArrive := math.Inf(1)
		if next < n {
			tArrive = math.Max(t, arrivalSec[order[next]])
		}
		tNext := math.Min(tComplete, tArrive)
		// Progress everyone to tNext.
		progress := (tNext - t) * r
		for i := range active {
			active[i].remaining -= progress
		}
		t = tNext
		if tComplete <= tArrive {
			// Retire finished queries (ties finish together).
			kept := active[:0]
			for _, a := range active {
				if a.remaining <= 1e-12 {
					out.Completion[a.idx] = t
					if t > out.Makespan {
						out.Makespan = t
					}
				} else {
					kept = append(kept, a)
				}
			}
			active = kept
		} else {
			idx := order[next]
			next++
			if maxConcurrent > 0 && len(active) >= maxConcurrent {
				queue = append(queue, idx)
			} else {
				admit(idx)
			}
		}
	}
	simMakespanSec.Observe(out.Makespan)
	return out, nil
}
