// Command perfbench is the repository's benchmark. One run boots fresh
// stock qpredictd daemons, drives one workload at them over loopback HTTP
// from this single process, checks every answer, and prints its figures.
//
// Usage (from the repository root; perfbench/run.sh builds both binaries):
//
//	perfbench --workload predict-hot --seed 1 --seconds 21 --trace 0
//
// Each daemon is timed from process start to a ready /readyz, then driven
// through an open-loop phase at the workload's fixed arrival rate and a
// closed-loop phase of nproc callers. Each phase measures a window of
// --seconds/6 after a short warmup.
//
// With --trace 0 a run reports the end-to-end metrics from three daemons
// booted one after another.
//
// With --trace 1 a run reports the per-layer metrics: one daemon is driven
// while its /metrics counters are scraped around each measured window, and
// then the request stream is replayed in process with a span around every
// call into a layer (see inproc.go), traced and untraced side by side to
// measure the tracing overhead. Spans are written to .bench_build/traces/.
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

// warmup precedes every measured window: connections open, and the
// repeating workloads' caches fill.
const warmup = 300 * time.Millisecond

// maxClosedRate caps a closed-loop phase, in requests per second, when
// sizing a stream whose queries are all new; a faster daemon exhausts the
// stream and fails the run instead of repeating queries.
const maxClosedRate = 1000

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: predict-hot, predict-cold or observe-churn")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 21, "measured seconds per end-to-end run: six windows of seconds/6")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics from a traced run")
	root := flag.String("root", ".", "repository checkout the daemon was built from")
	flag.Parse()

	spec, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	e, err := newRunEnv(spec, *seed, time.Duration(*seconds)*time.Second/(2*sessions), *root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	var res *result
	if *trace == 1 {
		res, err = e.traced()
	} else {
		res, err = e.endToEnd()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	e.report(res)
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// runEnv is one benchmark run: its workload stream and the daemons it boots.
type runEnv struct {
	spec   workloadSpec
	seed   int64
	window time.Duration // measured window of each phase
	work   string        // .bench_build in the checkout
	bin    string
	conns  int
	s      *stream
	cur    *cursor
	chk    *checker
	logs   []string
	phases []*phase
}

func newRunEnv(spec workloadSpec, seed int64, window time.Duration, root string) (*runEnv, error) {
	work := filepath.Join(root, ".bench_build")
	e := &runEnv{spec: spec, seed: seed, window: window, work: work, bin: filepath.Join(work, "qpredictd"), conns: runtime.NumCPU()}
	if _, err := os.Stat(e.bin); err != nil {
		return nil, fmt.Errorf("daemon binary: %w (build it with perfbench/run.sh)", err)
	}
	for _, d := range []string{"logs", "tmp", "traces"} {
		if err := os.MkdirAll(filepath.Join(work, d), 0o755); err != nil {
			return nil, err
		}
	}
	perPhase := (warmup + window).Seconds()
	maxReq := sessions * (int(perPhase*maxClosedRate) + int(math.Ceil(perPhase*spec.OpenRate)))
	var err error
	e.s, err = newStream(spec, seed, maxReq)
	if err != nil {
		return nil, err
	}
	e.cur = &cursor{limit: e.s.limit()}
	e.chk = newChecker(e.s, nil)
	return e, nil
}

// sessions is the number of daemons an end-to-end run boots.
const sessions = 3

// session is one fresh daemon driven through an open-loop phase and then a
// closed-loop phase.
type session struct {
	setup        time.Duration
	open, closed *phase
	cpu          time.Duration // daemon CPU time inside the closed window
	rss          float64       // peak RSS at the end, MiB
	// snaps are /metrics snapshots at the edges of the open (0) and closed
	// (1) windows, taken when scraping.
	snaps [2][2]metricsSnap
}

// session boots a fresh daemon, with a fresh state directory when the
// workload is durable, and drives it.
func (e *runEnv) session(n int, scraping bool) (*session, error) {
	logPath := filepath.Join(e.work, "logs", fmt.Sprintf("%s-seed%d-%d.log", e.spec.Name, e.seed, n))
	e.logs = append(e.logs, logPath)
	stateDir := ""
	if e.spec.ObserveFrac > 0 {
		var err error
		if stateDir, err = os.MkdirTemp(filepath.Join(e.work, "tmp"), e.spec.Name+"-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(stateDir)
	}
	d, err := startDaemon(e.bin, logPath, stateDir)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	c := newClient(d.Addr, e.conns)
	defer c.close()

	ss := &session{setup: d.Setup}
	var cpu [2]time.Duration
	var probeErr error
	probe := func(ph int) func(edge int) {
		return func(edge int) {
			var err error
			if scraping {
				ss.snaps[ph][edge], err = scrape(c)
			}
			if ph == 1 && err == nil {
				cpu[edge], err = d.cpuTime()
			}
			if err != nil {
				probeErr = err
			}
		}
	}
	// The generator holds every response until the run is checked; a
	// collection before each phase makes one inside the window less likely.
	runtime.GC()
	ss.open = runOpen(c, e.s, e.cur, e.conns, e.spec.OpenRate, warmup, e.window, probe(0))
	runtime.GC()
	ss.closed = runClosed(c, e.s, e.cur, e.conns, warmup, e.window, probe(1))
	if probeErr != nil {
		return nil, probeErr
	}
	if ss.open.Exhausted || ss.closed.Exhausted {
		return nil, fmt.Errorf("%s ran out of new queries (stream limit %d requests)", e.spec.Name, e.s.limit())
	}
	e.phases = append(e.phases, ss.open, ss.closed)
	ss.cpu = cpu[1] - cpu[0]
	if ss.rss, err = d.peakRSSMB(); err != nil {
		return nil, err
	}
	// The /v1/model read is one more checked request: observe-churn must
	// have retrained by now.
	gen, err := modelGeneration(c)
	if err != nil {
		return nil, err
	}
	e.chk.attempted++
	if e.spec.ObserveFrac > 0 && gen <= 1 {
		e.chk.fail("observe-churn daemon still serves generation %d after its phases", gen)
		e.chk.failed++
	}
	return ss, nil
}

// finishChecks loads the boot model, which is also the oracle of the
// predict-only workloads, and verifies every response of every phase. It
// runs after the daemons have stopped, so it does not load the host while
// anything is measured.
func (e *runEnv) finishChecks() (boot *core.Predictor, bootQueries []*dataset.Query, err error) {
	boot, bootQueries, err = bootModel(e.work)
	if err != nil {
		return nil, nil, fmt.Errorf("training the boot model: %w", err)
	}
	if e.spec.ObserveFrac == 0 {
		e.chk.oracle = boot
	}
	if err := e.s.fillActuals(maxIndex(e.s, e.phases)); err != nil {
		return nil, nil, err
	}
	if err := e.chk.expect(e.phases); err != nil {
		return nil, nil, err
	}
	for _, p := range e.phases {
		e.chk.check(p)
	}
	return boot, bootQueries, nil
}

// endToEnd measures the end-to-end metrics over three fresh daemons: the
// median of the daemons' own figures, except the peak RSS, which is the
// highest any of them reached. Latency covers predict requests only: an
// observe is acknowledged before it is applied. The open-loop tail is
// printed with its sample count but not reported as a metric; on a shared
// 2-CPU host a few stalls of tens of milliseconds per run decide it.
func (e *runEnv) endToEnd() (*result, error) {
	var setups, rss, tput, cpu, p50s, all, late []float64
	for i := 1; i <= sessions; i++ {
		ss, err := e.session(i, false)
		if err != nil {
			return nil, err
		}
		lat := ss.open.latenciesMS()
		p50, err := percentile(lat, 50)
		if err != nil {
			return nil, err
		}
		// The tail is printed, not reported; a thin sample prints why.
		p95, err := percentile(lat, 95)
		tail := p95.String() + " ms"
		if err != nil {
			tail = err.Error()
		}
		fmt.Fprintf(os.Stderr, "daemon %d: set-up %.3f s, open-loop latency %v ms, %s\n", i, ss.setup.Seconds(), p50, tail)
		setups = append(setups, ss.setup.Seconds())
		rss = append(rss, ss.rss)
		tput = append(tput, ss.closed.throughput())
		cpu = append(cpu, ratio(float64(ss.cpu)/float64(time.Millisecond), float64(ss.closed.completed())))
		p50s = append(p50s, p50.Value)
		all = append(all, lat...)
		late = append(late, ss.open.latenessMS()...)
	}
	if _, _, err := e.finishChecks(); err != nil {
		return nil, err
	}
	res := e.newResult()
	res.Metrics = map[string]metric{
		"setup_s":        {median(setups), "s"},
		"throughput_rps": {median(tput), "1/s"},
		"latency_p50_ms": {median(p50s), "ms"},
		"cpu_ms_per_req": {median(cpu), "ms"},
		"rss_mb":         {maxOf(rss), "MiB"},
		"within20_frac":  {e.chk.within20(), "ratio"},
		"success_ratio":  {1 - ratio(float64(res.Failed), float64(res.Attempted)), "ratio"},
	}
	fmt.Fprintf(os.Stderr, "closed-loop throughput %.4g req/s, daemon cpu %.4g ms/req\n", tput, cpu)
	if p99, err := percentile(all, 99); err == nil {
		fmt.Fprintf(os.Stderr, "open-loop latency over all daemons %v ms\n", p99)
	}
	fmt.Fprintf(os.Stderr, "open-loop sends late by median %.3f ms, max %.3f ms\n", median(late), maxOf(late))
	return res, nil
}

func (e *runEnv) newResult() *result {
	return &result{
		Correct:   e.chk.failed == 0,
		Attempted: e.chk.attempted,
		Failed:    e.chk.failed,
	}
}

// traced measures the per-layer metrics: counter deltas from one daemon
// driven as in the end-to-end run, then the in-process passes.
func (e *runEnv) traced() (*result, error) {
	ss, err := e.session(1, true)
	if err != nil {
		return nil, err
	}
	boot, bootQueries, err := e.finishChecks()
	if err != nil {
		return nil, err
	}

	snaps := ss.snaps
	m := map[string]metric{}
	delta := func(name string) float64 {
		return snaps[0][1].delta(snaps[0][0], name) + snaps[1][1].delta(snaps[1][0], name)
	}
	histMean := func(name string) float64 {
		var sum float64
		var n int64
		for _, w := range snaps {
			sum += w[1].Histograms[name].Sum - w[0].Histograms[name].Sum
			n += w[1].Histograms[name].Count - w[0].Histograms[name].Count
		}
		return ratio(sum, float64(n))
	}
	hitRatio := func(prefix string) float64 {
		h := delta(prefix + ".hits")
		return ratio(h, h+delta(prefix+".misses"))
	}
	full, incr := delta("kcca.retrain.full"), delta("kcca.retrain.incremental")
	closedEnd := snaps[1][1] // the heaviest observe load
	m["core.plancache.hit_ratio"] = metric{hitRatio("core.plancache"), "ratio"}
	m["core.projcache.hit_ratio"] = metric{hitRatio("core.projcache"), "ratio"}
	m["serve.batch_queries_mean"] = metric{histMean("serve.batch.size"), "count"}
	m["serve.rejected_ratio"] = metric{ratio(delta("serve.rejected.overload"), delta("serve.requests.predict")+delta("serve.requests.observe")), "ratio"}
	m["knn.points_visited_mean"] = metric{histMean("knn.index.points_visited"), "count"}
	m["kcca.retrains"] = metric{full + incr, "count"}
	m["kcca.retrain_full_ratio"] = metric{ratio(full, full+incr), "ratio"}
	m["wal.fsyncs_per_append"] = metric{ratio(delta("wal.fsyncs"), delta("wal.appends")), "ratio"}
	m["serve.observe_backlog"] = metric{float64(closedEnd.Gauges["serve.observe.queue_depth"]), "count"}
	m["serve.observe_apply_rps"] = metric{closedEnd.delta(snaps[1][0], "core.sliding.observed") / e.window.Seconds(), "1/s"}
	m["parallel.inline_ratio"] = metric{ratio(delta("parallel.pool.inline_runs"), delta("parallel.for.calls")), "ratio"}

	late := ss.open.latenessMS()
	m["loadgen.late_p50_ms"] = metric{median(late), "ms"}
	m["loadgen.late_max_ms"] = metric{maxOf(late), "ms"}
	lat := ss.open.latenciesMS()
	p95, err := percentile(lat, 95)
	if err != nil {
		return nil, err
	}
	m["open.latency_p95_ms"] = metric{p95.Value, "ms"}
	m["open.latency_samples"] = metric{float64(p95.Samples), "count"}
	m["workload.repeat_share"] = metric{e.s.repeatShare(e.cur.claimed()), "ratio"}

	// In-process passes for one window, traced and untraced side by side.
	var buf bytes.Buffer
	if err := boot.Save(&buf); err != nil {
		return nil, err
	}
	var dirs [2]string
	for i := range dirs {
		if dirs[i], err = os.MkdirTemp(filepath.Join(e.work, "tmp"), e.spec.Name+"-inproc-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dirs[i])
	}
	tp, up, err := runPasses(e.s, buf.Bytes(), bootQueries, dirs, e.window)
	if err != nil {
		return nil, err
	}
	tracePath := filepath.Join(e.work, "traces", fmt.Sprintf("%s-seed%d.jsonl", e.spec.Name, e.seed))
	if err := writeSpans(tracePath, tp.Spans); err != nil {
		return nil, err
	}
	for k, v := range layerMetrics(tp, up) {
		m[k] = v
	}

	res := e.newResult()
	res.Attempted += tp.Requests + up.Requests
	res.Failed += tp.Wrong + up.Wrong
	res.Correct = res.Failed == 0
	res.Metrics = m
	fmt.Fprintf(os.Stderr, "spans: %s (%d)\n", tracePath, len(tp.Spans))
	return res, nil
}

// layerMetrics turns a traced pass (and its untraced twin) into per-layer
// metrics: mean time per call in each layer. The tracing overhead is the
// median of the paired per-request differences between the two passes;
// on a busy 2-CPU host that difference is mostly noise, so the recorder's
// own cost per request (spans per request times the cost of one span) is
// reported beside it.
func layerMetrics(tp, up *passResult) map[string]metric {
	st := aggregate(tp.Spans)
	us := func(name string) float64 { return mean(st.dur[name]) }
	ms := func(name string) float64 { return mean(st.dur[name]) / 1e3 }
	retrains := append(append([]float64(nil), st.dur["core.retrain.full"]...), st.dur["core.retrain.incremental"]...)
	return map[string]metric{
		"sqlparse.parse_us":           {us("sqlparse.parse"), "us"},
		"sqlparse.parse_calls":        {float64(len(st.dur["sqlparse.parse"])), "count"},
		"optimizer.build_plan_us":     {us("optimizer.build_plan"), "us"},
		"features.plan_vector_us":     {us("features.plan_vector"), "us"},
		"core.plancache.plan_us":      {us("core.plancache.plan"), "us"},
		"core.plancache.plan_self_us": {mean(st.self["core.plancache.plan"]), "us"},
		"kcca.project_us":             {us("kcca.project"), "us"},
		"kcca.project_calls":          {float64(len(st.dur["kcca.project"])), "count"},
		"knn.nearest_us":              {us("knn.nearest"), "us"},
		"knn.combine_us":              {us("knn.combine"), "us"},
		"core.predict_batch_us":       {us("core.predict_batch"), "us"},
		"api.decode_us":               {us("api.decode"), "us"},
		"api.encode_us":               {us("api.encode"), "us"},
		"api.response_bytes":          {mean(tp.RespBytes), "bytes"},
		"serve.handler_us":            {us("serve.handler"), "us"},
		"serve.handler_self_us":       {mean(handlerSelf(tp.Spans)), "us"},
		"wal.append_us":               {us("wal.append"), "us"},
		"wal.snapshot_ms":             {ms("wal.snapshot"), "ms"},
		"core.observe_us":             {us("core.observe"), "us"},
		"core.retrain_ms":             {mean(retrains) / 1e3, "ms"},
		"core.retrain_calls":          {float64(len(retrains)), "count"},
		"kcca.train_full_ms":          {ms("core.retrain.full"), "ms"},
		"kcca.retrain_incremental_ms": {ms("core.retrain.incremental"), "ms"},
		"knn.index_build_ms":          {ms("knn.index_build"), "ms"},
		"trace.requests":              {float64(tp.Requests), "count"},
		"trace.spans":                 {float64(len(tp.Spans)), "count"},
		"trace.overhead_us":           {median(diffs(tp.ReqUS, up.ReqUS)), "us"},
		"trace.recorder_us_per_req":   {float64(spanCost(100000)) / 1e3 * ratio(float64(len(tp.Spans)), float64(tp.Requests)), "us"},
	}
}

// diffs returns a[i]-b[i] for each i.
func diffs(a, b []float64) []float64 {
	out := make([]float64, min(len(a), len(b)))
	for i := range out {
		out[i] = a[i] - b[i]
	}
	return out
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// report prints the human-readable summary to standard error and removes
// the daemon logs of a run that passed its checks.
func (e *runEnv) report(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%s seed %d: %s\n", e.spec.Name, e.seed, e.chk)
	for _, p := range e.phases {
		fmt.Fprintf(os.Stderr, "  phase: %s\n", p)
	}
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-30s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "run failed its checks; daemon logs kept: %v\n", e.logs)
		return
	}
	for _, l := range e.logs {
		os.Remove(l)
	}
}
