package main

import (
	"bytes"
	"container/list"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/api"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/features"
	"repro/internal/knn"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/serve"
	"repro/internal/sqlparse"
	"repro/internal/wal"
	"repro/internal/workload"
	"repro/pkg/qpredict"
)

// The in-process pass replays a workload's request stream through the
// serving stack's layers inside the benchmark process and records a span
// around each call into a layer's public functions. The program carries no
// tracing of its own, so a request is traced twice over:
//
//   - serve.handler runs the request through serve.Server's HTTP handler,
//     which plans, coalesces and predicts internally (opaque to spans);
//   - the request is then decoded, planned, predicted and encoded again by
//     the benchmark, layer by layer, on a second copy of the same model and
//     caches, which see the same request sequence and so hit and miss as
//     the handler's did (up to the order in which one batch's queries,
//     predicted in parallel, reach the projection cache).
//
// The second copy's plan cache is built on a plan function of the
// benchmark's, so sqlparse, optimizer and features spans nest under
// core.plancache.plan only on a cache miss. Prediction is timed as one
// core.Predictor.Predict call per request and then decomposed into
// kcca.ProjectQueryKernel (on a projection-cache miss), knn.Index.Nearest
// and knn.Combine per query; the decomposition must reproduce Predict's
// metrics bit for bit, or the pass reports a mismatch.
//
// Observe requests (observe-churn) bypass the handler: the benchmark plans
// each observation, appends it to a WAL store, feeds it to a sliding
// predictor synchronously, and on each new generation times knn.NewIndex
// and a wal.Store.Snapshot.
type inproc struct {
	rec *recorder
	s   *stream

	srv     *serve.Server
	handler http.Handler

	plans   *core.PlanCache
	pred    *core.Predictor
	values  *linalg.Matrix // raw metric rows of pred, row-aligned with its model
	projLRU *vecLRU
	opt     core.Options

	// Observe path (observe-churn only).
	sliding *core.SlidingPredictor
	store   *wal.Store
	ring    [][]float64 // raw metric rows by window slot
	nObs    int
	gen     int64

	mismatches int // queries whose decomposed or served answer differed
	respBytes  []float64
}

// newInproc builds a fresh stack around two copies of the boot model.
func newInproc(rec *recorder, s *stream, boot []byte, bootQueries []*dataset.Query, stateDir string) (*inproc, error) {
	def := qpredict.Default()
	machine, err := exec.ParseMachine(def.Train.Machine)
	if err != nil {
		return nil, err
	}
	schema := catalog.TPCDS(1)
	served, err := core.Load(bytes.NewReader(boot))
	if err != nil {
		return nil, err
	}
	pred, err := core.Load(bytes.NewReader(boot))
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{
		Schema:    schema,
		Machine:   machine,
		DataSeed:  def.Train.DataSeed,
		Plans:     serve.NewPlanner(schema, def.Train.DataSeed, machine, def.Serve.PlanCache),
		Predictor: served,
		Window:    def.Serve.Window.Std(),
		MaxBatch:  def.Serve.MaxBatch,
		QueueCap:  def.Serve.QueueCap,
		Timeout:   def.Serve.Timeout.Std(),
	})
	if err != nil {
		return nil, err
	}
	rows := make([][]float64, len(bootQueries))
	for i, q := range bootQueries {
		rows[i] = features.PerfRawVector(q.Metrics)
	}
	ip := &inproc{
		rec: rec, s: s,
		srv: srv, handler: srv.Handler(),
		pred: pred, values: features.Matrices(rows),
		projLRU: newVecLRU(projCacheEntries),
		opt:     pred.Options(),
		gen:     1,
	}
	ip.plans = core.NewPlanCache(def.Serve.PlanCache, ip.tracedPlan(schema, def.Train.DataSeed, machine))
	if s.spec.ObserveFrac > 0 {
		ip.store, err = wal.OpenStore(wal.StoreOptions{
			Dir:           stateDir,
			Policy:        wal.SyncBatch,
			SyncEvery:     def.State.FsyncEvery,
			SnapshotEvery: def.State.SnapshotEvery,
			Plan:          ip.plans.Plan,
		})
		if err != nil {
			srv.Close()
			return nil, err
		}
		ip.sliding, _, err = ip.store.Recover(def.Sliding.Capacity, def.Sliding.RetrainEvery, core.DefaultOptions())
		if err != nil {
			ip.close()
			return nil, err
		}
		ip.ring = make([][]float64, def.Sliding.Capacity)
	}
	return ip, nil
}

// projCacheEntries is core's projection cache capacity, mirrored so the
// pass times a projection exactly when Predict computed one.
const projCacheEntries = 1024

// tracedPlan is serve.PlannerFunc with a span around each stage, plus the
// plan-vector extraction the plan cache would otherwise do itself.
func (ip *inproc) tracedPlan(schema *catalog.Schema, seed int64, machine exec.Machine) core.PlanFunc {
	cfg := optimizer.DefaultConfig(machine.Processors)
	return func(sql string) (*dataset.Query, error) {
		id := ip.rec.begin("sqlparse.parse")
		ast, err := sqlparse.Parse(sql)
		ip.rec.end(id)
		if err != nil {
			return nil, err
		}
		id = ip.rec.begin("optimizer.build_plan")
		plan, err := optimizer.BuildPlan(ast, schema, seed, cfg)
		ip.rec.end(id)
		if err != nil {
			return nil, err
		}
		id = ip.rec.begin("features.plan_vector")
		feat := features.PlanVector(plan)
		ip.rec.end(id)
		return &dataset.Query{SQL: sql, AST: ast, Plan: plan, PlanFeat: feat}, nil
	}
}

func (ip *inproc) close() {
	ip.srv.Close()
	if ip.store != nil {
		ip.store.Close(ip.sliding, ip.gen)
	}
}

// do replays request k.
func (ip *inproc) do(k int) error {
	ip.rec.req = k
	root := ip.rec.begin("request")
	defer ip.rec.end(root)
	r := ip.s.request(k)
	body := ip.s.body(r)
	if r.Observe {
		return ip.observe(body)
	}
	return ip.predict(body)
}

func (ip *inproc) predict(body []byte) error {
	id := ip.rec.begin("serve.handler")
	rw := httptest.NewRecorder()
	ip.handler.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
	ip.rec.end(id)
	if rw.Code != http.StatusOK {
		return fmt.Errorf("in-process handler answered %d: %s", rw.Code, rw.Body.Bytes())
	}

	id = ip.rec.begin("api.decode")
	var req api.PredictRequest
	err := json.Unmarshal(body, &req)
	ip.rec.end(id)
	if err != nil {
		return err
	}
	inputs := req.Inputs()
	reqs := make([]core.Request, len(inputs))
	for i, in := range inputs {
		id := ip.rec.begin("core.plancache.plan")
		q, err := ip.plans.Plan(in.SQL)
		ip.rec.end(id)
		if err != nil {
			return err
		}
		reqs[i] = core.Request{Query: q}
	}

	id = ip.rec.begin("core.predict_batch")
	results := ip.pred.Predict(reqs...)
	ip.rec.end(id)

	for i, rq := range reqs {
		if results[i].Err != nil {
			return results[i].Err
		}
		f := rq.Query.PlanFeat
		proj, ok := ip.projLRU.get(f)
		if !ok {
			id := ip.rec.begin("kcca.project")
			proj, _ = ip.pred.Model().ProjectQueryKernel(f)
			ip.rec.end(id)
			ip.projLRU.put(f, proj)
		}
		id := ip.rec.begin("knn.nearest")
		nbs, err := ip.pred.Index().Nearest(proj, ip.opt.KNN.K)
		ip.rec.end(id)
		if err != nil {
			return err
		}
		id = ip.rec.begin("knn.combine")
		vals := knn.Combine(ip.values, nbs, ip.opt.KNN.Weighting)
		ip.rec.end(id)
		if exec.MetricsFromVector(vals) != results[i].Prediction.Metrics {
			ip.mismatches++
		}
	}

	// Encode the handler's own response, decoded first (untimed).
	var resp api.PredictResponse
	if err := json.Unmarshal(rw.Body.Bytes(), &resp); err != nil {
		return err
	}
	if ip.sliding == nil {
		// Same boot model on both copies: the handler's answers must
		// equal the decomposed Predict's.
		for i, res := range resp.Results {
			if res.Metrics == nil || *res.Metrics != api.MetricsFrom(results[i].Prediction.Metrics) {
				ip.mismatches++
			}
		}
	}
	id = ip.rec.begin("api.encode")
	b, err := json.Marshal(resp)
	ip.rec.end(id)
	ip.respBytes = append(ip.respBytes, float64(len(b)))
	return err
}

func (ip *inproc) observe(body []byte) error {
	id := ip.rec.begin("api.decode")
	var req api.ObserveRequest
	err := json.Unmarshal(body, &req)
	ip.rec.end(id)
	if err != nil {
		return err
	}
	full := obs.GetCounter("kcca.retrain.full")
	for _, o := range req.Observations {
		id := ip.rec.begin("core.plancache.plan")
		q, err := ip.plans.Plan(o.SQL)
		ip.rec.end(id)
		if err != nil {
			return err
		}
		q.Metrics = o.Metrics.Exec()
		q.Category = workload.Categorize(q.Metrics.ElapsedSec)

		id = ip.rec.begin("wal.append")
		seq, err := ip.store.Append(q.SQL, q.Metrics)
		ip.rec.end(id)
		if err != nil {
			return err
		}

		before, fullBefore := ip.sliding.Retrains(), full.Value()
		id = ip.rec.begin("core.observe")
		err = ip.sliding.Observe(q)
		ip.rec.end(id)
		if err != nil {
			return err
		}
		ip.ring[ip.nObs%len(ip.ring)] = features.PerfRawVector(q.Metrics)
		ip.nObs++
		if ip.sliding.Retrains() != before {
			if full.Value() != fullBefore {
				ip.rec.rename(id, "core.retrain.full")
			} else {
				ip.rec.rename(id, "core.retrain.incremental")
			}
			if err := ip.install(); err != nil {
				return err
			}
		}
		ip.store.Applied(seq)
	}
	return nil
}

// install switches the decomposition to the sliding predictor's new
// generation and times that generation's index build and snapshot.
func (ip *inproc) install() error {
	ip.gen++
	ip.pred = ip.sliding.Current()
	ip.values = features.Matrices(ip.ring[:ip.sliding.WindowSize()])
	ip.projLRU = newVecLRU(projCacheEntries)

	id := ip.rec.begin("knn.index_build")
	knn.NewIndex(ip.pred.Model().QueryProj, ip.opt.KNN.Distance)
	ip.rec.end(id)

	id = ip.rec.begin("wal.snapshot")
	err := ip.store.Snapshot(ip.sliding, ip.gen)
	ip.rec.end(id)
	return err
}

// vecLRU mirrors core's per-generation projection cache: an LRU keyed by a
// feature vector's exact bits.
type vecLRU struct {
	cap   int
	order *list.List
	byKey map[string]*list.Element
}

type vecEntry struct {
	key  string
	proj []float64
}

func newVecLRU(capacity int) *vecLRU {
	return &vecLRU{cap: capacity, order: list.New(), byKey: map[string]*list.Element{}}
}

func vecKey(f []float64) string {
	b := make([]byte, 8*len(f))
	for i, v := range f {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return string(b)
}

func (c *vecLRU) get(f []float64) ([]float64, bool) {
	el, ok := c.byKey[vecKey(f)]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*vecEntry).proj, true
}

func (c *vecLRU) put(f, proj []float64) {
	key := vecKey(f)
	c.byKey[key] = c.order.PushFront(&vecEntry{key: key, proj: proj})
	if c.order.Len() > c.cap {
		old := c.order.Back()
		c.order.Remove(old)
		delete(c.byKey, old.Value.(*vecEntry).key)
	}
}

// passResult is what one in-process pass measured.
type passResult struct {
	Requests int
	ReqUS    []float64 // wall time of each request
	Spans    []span
	// Wrong counts requests with at least one mismatched answer.
	Wrong     int
	RespBytes []float64
}

// runPasses replays the stream from its first request through two fresh
// in-process stacks, one traced and one not, for as long as budget allows.
// Request k runs on both stacks back to back, alternating which goes first,
// so the pair shares the host's state at that moment and the difference of
// their times is the tracing overhead.
func runPasses(s *stream, boot []byte, bootQueries []*dataset.Query, stateDirs [2]string, budget time.Duration) (traced, untraced *passResult, err error) {
	var ips [2]*inproc
	for i := range ips {
		ips[i], err = newInproc(newRecorder(i == 0), s, boot, bootQueries, stateDirs[i])
		if err != nil {
			return nil, nil, err
		}
		defer ips[i].close()
	}
	res := [2]*passResult{{}, {}}
	start := time.Now()
	for k := 0; k < s.limit() && time.Since(start) < budget; k++ {
		for j := 0; j < 2; j++ {
			i := (k + j) % 2
			before := ips[i].mismatches
			t0 := time.Now()
			if err := ips[i].do(k); err != nil {
				return nil, nil, fmt.Errorf("in-process request %d: %w", k, err)
			}
			res[i].ReqUS = append(res[i].ReqUS, float64(time.Since(t0))/1e3)
			res[i].Requests++
			if ips[i].mismatches > before {
				res[i].Wrong++
			}
		}
	}
	for i, ip := range ips {
		res[i].Spans, res[i].RespBytes = ip.rec.spans, ip.respBytes
	}
	return res[0], res[1], nil
}
