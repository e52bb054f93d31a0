// Package serve is the network-facing layer of the predictor: the HTTP
// handlers of the qpredictd daemon, the paper's Fig. 1 vendor-trains /
// customer-predicts workflow turned into an online service. It is
// stdlib-only and built around httptest-friendly pieces: New wires a
// Server from a Config, Handler returns its mux, Close drains it.
//
// Request flow: /v1/predict decodes the body, parses and plans each SQL
// query, and hands the planned queries to a shard.Router with a
// per-request deadline; the router's shards micro-batch them against their
// hot-swapped models (bounded queues, 429 on overflow). /v1/observe plans
// executed queries and routes them to the owning shard's sliding
// retraining window. serve then maps the outcomes to wire codes and
// encodes the response.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/shard"
	"repro/internal/sqlparse"
	"repro/internal/wal"
	"repro/internal/workload"
)

// Request metrics. Queue, batch, swap and rejection metrics belong to the
// shard tier (internal/shard), in the same serve.* namespace.
var (
	requestTimeouts = obs.GetCounter("serve.request.timeouts")
	predictRequests = obs.GetCounter("serve.requests.predict")
	observeRequests = obs.GetCounter("serve.requests.observe")
	predictSeconds  = obs.GetHistogram("serve.predict.seconds")
)

// Config wires a Server.
type Config struct {
	// Router serves every prediction and observation: one or more shards,
	// each with its own model slot, coalescer, sliding window and
	// background retrain loop. The Server takes ownership and closes the
	// router on Close. Set exactly one of Router and Predictor.
	Router *shard.Router
	// Predictor is shorthand for a static one-shard router serving this
	// model, micro-batched with Window, MaxBatch and QueueCap; it takes no
	// observation feedback.
	Predictor *core.Predictor
	// Schema and Machine configure the planner that turns incoming SQL
	// into the plan feature vectors the model consumes.
	Schema   *catalog.Schema
	Machine  exec.Machine
	DataSeed int64

	// Plans, when set, is the plan/feature cache every handler plans SQL
	// through — qpredictd shares one cache between live traffic and WAL
	// replay so recovery pre-warms serving. Nil builds a private cache with
	// PlanCacheEntries capacity over the daemon's planner.
	Plans *core.PlanCache
	// PlanCacheEntries bounds the private plan cache when Plans is nil:
	// 0 selects the default, negative disables caching (every request pays
	// the full parse + optimize pipeline — the benchmark baseline).
	PlanCacheEntries int

	// Window, MaxBatch and QueueCap configure the router built from
	// Predictor (see shard.Config); a Router carries its own.
	Window   time.Duration
	MaxBatch int
	QueueCap int
	// Timeout is the per-request deadline for /v1/predict (default 10s).
	Timeout time.Duration
	// MaxQueries caps the number of queries in one /v1/predict body
	// (default 256).
	MaxQueries int
	// MaxBody caps the request body size in bytes (default 4 MiB).
	MaxBody int64
}

// Server is the prediction service. Create with New, mount with Handler,
// stop with Close.
type Server struct {
	cfg Config
	// plans is the fingerprint-keyed plan/feature cache (core.PlanCache):
	// generation-independent — plans are pure in (SQL, schema, data seed,
	// planner config), so hot swaps never invalidate it — and shared by the
	// predict path, the observe path, and (through the planned queries it
	// returns) the shard tier's shadow scorer.
	plans  *core.PlanCache
	router *shard.Router
	// draining is set by Close; /readyz reports it at once, before the
	// router has finished draining.
	draining atomic.Bool
}

// New validates the config and wraps the router (or builds the one-shard
// router Predictor stands for).
func New(cfg Config) (*Server, error) {
	if cfg.Schema == nil {
		return nil, fmt.Errorf("serve: config needs a schema")
	}
	if (cfg.Router == nil) == (cfg.Predictor == nil) {
		return nil, fmt.Errorf("serve: config needs exactly one of a shard router and a boot predictor")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.MaxQueries <= 0 {
		cfg.MaxQueries = 256
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 4 << 20
	}
	if cfg.Plans == nil {
		cfg.Plans = NewPlanner(cfg.Schema, cfg.DataSeed, cfg.Machine, cfg.PlanCacheEntries)
	}
	if cfg.Predictor != nil {
		var err error
		cfg.Router, err = shard.NewRouter([]shard.ShardConfig{{Boot: cfg.Predictor}}, shard.Passthrough{},
			shard.Config{Window: cfg.Window, MaxBatch: cfg.MaxBatch, QueueCap: cfg.QueueCap}, false)
		if err != nil {
			return nil, err
		}
	}
	return &Server{cfg: cfg, plans: cfg.Plans, router: cfg.Router}, nil
}

// Close drains the server: new submissions are refused (503), in-flight
// micro-batches and queued observations finish, and every shard's
// background goroutines exit before Close returns. It is the shutdown hook
// qpredictd runs on SIGTERM, and it is idempotent.
func (s *Server) Close() {
	s.draining.Store(true)
	s.router.Close()
}

// Handler returns the service mux:
//
//	POST /v1/predict   predict one or many queries
//	POST /v1/observe   feed executed queries to the retraining window
//	GET  /v1/model     current model metadata
//	GET  /v1/shards    per-shard model state
//	GET  /healthz      process liveness
//	GET  /readyz       readiness (a model is being served and not draining)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/predict", s.handlePredict)
	mux.HandleFunc("/v1/observe", s.handleObserve)
	mux.HandleFunc("/v1/model", s.handleModel)
	mux.HandleFunc("/v1/shards", s.handleShards)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/readyz", s.handleReady)
	return mux
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeError(w, api.CodeShuttingDown, "draining")
		return
	}
	if !s.router.AnyReady() {
		writeError(w, api.CodeNotTrained, "no model trained yet")
		return
	}
	w.Write([]byte("ready\n"))
}

// PlannerFunc returns the deterministic SQL → planned-query pipeline the
// serving layer runs on every /v1/observe, packaged as a core.PlanFunc for
// WAL replay and snapshot restore. Plans and feature vectors are pure
// functions of (SQL, schema, data seed, planner config), so re-planning
// persisted SQL through this reproduces the live observation exactly.
func PlannerFunc(schema *catalog.Schema, dataSeed int64, machine exec.Machine) core.PlanFunc {
	planCfg := optimizer.DefaultConfig(machine.Processors)
	return func(sql string) (*dataset.Query, error) {
		ast, err := sqlparse.Parse(sql)
		if err != nil {
			// Stage-tagged so handlers report parse_error vs plan_error;
			// Error() passes the message through unchanged, keeping WAL
			// replay diagnostics byte-identical.
			return nil, &planStageError{code: api.CodeParse, err: err}
		}
		plan, err := optimizer.BuildPlan(ast, schema, dataSeed, planCfg)
		if err != nil {
			return nil, &planStageError{code: api.CodePlan, err: err}
		}
		return &dataset.Query{SQL: sql, AST: ast, Plan: plan}, nil
	}
}

// NewPlanner wraps the daemon's deterministic planner in a plan/feature
// cache (core.PlanCache). entries 0 selects the default capacity, negative
// disables caching. qpredictd builds one and shares it between WAL replay
// (wal.StoreOptions.Plan) and live serving (Config.Plans), so boot-time
// recovery pre-warms the cache the first requests hit.
func NewPlanner(schema *catalog.Schema, dataSeed int64, machine exec.Machine, entries int) *core.PlanCache {
	return core.NewPlanCache(entries, PlannerFunc(schema, dataSeed, machine))
}

// planQuery turns SQL text into a planned query through the plan cache,
// classifying failures as parse vs plan errors.
func (s *Server) planQuery(sql string) (*dataset.Query, float64, *api.Error) {
	q, err := s.plans.Plan(sql)
	if err != nil {
		var stage *planStageError
		if errors.As(err, &stage) {
			return nil, 0, &api.Error{Code: stage.code, Message: stage.err.Error()}
		}
		return nil, 0, &api.Error{Code: api.CodePlan, Message: err.Error()}
	}
	return q, q.Plan.Cost, nil
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, api.CodeMethod, "use POST")
		return
	}
	predictRequests.Inc()
	defer predictSeconds.Time()()

	var req api.PredictRequest
	if err := readJSON(w, r, s.cfg.MaxBody, &req); err != nil {
		writeError(w, api.CodeBadRequest, "decoding body: "+err.Error())
		return
	}
	inputs := req.Inputs()
	if len(inputs) == 0 {
		writeError(w, api.CodeBadRequest, `no queries (use {"sql": ...} or {"queries": [...]})`)
		return
	}
	if len(inputs) > s.cfg.MaxQueries {
		writeError(w, api.CodeBadRequest,
			fmt.Sprintf("%d queries exceeds the per-request limit of %d", len(inputs), s.cfg.MaxQueries))
		return
	}
	// Cold shards are rescued by the warm fallback or fail per query; the
	// daemon refuses predictions only while no shard serves a model.
	if !s.router.AnyReady() {
		writeError(w, api.CodeNotTrained, "no model trained yet")
		return
	}

	// Parse + plan first: malformed queries fail in place without entering
	// a queue, so a batch mixing good and bad SQL still gets predictions
	// for the good part. Shard-level failures (routing, a cold shard
	// without rescue, model errors) land in their own result slot; a shed
	// queue, draining and the request deadline reject the whole request.
	results := make([]api.QueryResult, len(inputs))
	qs := make([]*dataset.Query, 0, len(inputs))
	qIdx := make([]int, 0, len(inputs))
	for i, in := range inputs {
		results[i].SQL = in.SQL
		q, cost, apiErr := s.planQuery(in.SQL)
		if apiErr != nil {
			results[i].Error = apiErr
			continue
		}
		results[i].OptimizerCost = cost
		qs = append(qs, q)
		qIdx = append(qIdx, i)
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	outs := s.router.Predict(ctx, qs)
	sharded := s.router.Sharded()
	for k, out := range outs {
		i := qIdx[k]
		err := out.Err
		if err == nil {
			err = out.Res.Err
		}
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			requestTimeouts.Inc()
			writeError(w, api.CodeTimeout,
				fmt.Sprintf("prediction did not complete within %v", s.cfg.Timeout))
			return
		case errors.Is(err, context.Canceled):
			requestTimeouts.Inc()
			writeError(w, api.CodeTimeout, "client went away: "+err.Error())
			return
		case errors.Is(err, shard.ErrOverloaded), errors.Is(err, shard.ErrDraining):
			e := apiError(err)
			writeError(w, e.Code, e.Message)
			return
		case err != nil:
			results[i].Error = apiError(err)
		default:
			m := api.MetricsFrom(out.Res.Prediction.Metrics)
			results[i].Metrics = &m
			results[i].Category = out.Res.Prediction.Category.String()
			results[i].Confidence = out.Res.Prediction.Confidence
			results[i].Generation = out.Gen
			// Attribute the answer to the model that actually produced it —
			// under the cold-start fallback that is the fallback shard's
			// kind, not the cold owner's.
			results[i].ModelKind = out.Kind
		}
		if sharded {
			results[i].Shard = strconv.Itoa(out.Shard)
			if err == nil && out.Served != out.Shard {
				results[i].FallbackShard = strconv.Itoa(out.Served)
			}
		}
	}
	writeJSON(w, http.StatusOK, api.PredictResponse{
		Version: api.Version,
		Model:   s.modelInfo(),
		Results: results,
	})
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, api.CodeMethod, "use POST")
		return
	}
	observeRequests.Inc()
	if !s.router.HasFeedback() {
		writeError(w, api.CodeBadRequest, "serve: daemon runs a static model (no observation feedback)")
		return
	}
	var req api.ObserveRequest
	if err := readJSON(w, r, s.cfg.MaxBody, &req); err != nil {
		writeError(w, api.CodeBadRequest, "decoding body: "+err.Error())
		return
	}
	if len(req.Observations) == 0 {
		writeError(w, api.CodeBadRequest, "no observations")
		return
	}
	owner, sameOwner := -1, true // single-owner tracking for the shard field
	for i, o := range req.Observations {
		q, _, apiErr := s.planQuery(o.SQL)
		if apiErr != nil {
			writeError(w, apiErr.Code, fmt.Sprintf("observation %d: %s", i, apiErr.Message))
			return
		}
		q.Metrics = o.Metrics.Exec()
		q.Category = workload.Categorize(q.Metrics.ElapsedSec)
		sh, err := s.router.Observe(q)
		if err != nil {
			e := apiError(err)
			writeError(w, e.Code, fmt.Sprintf("observation %d: %s", i, e.Message))
			return
		}
		if owner == -1 {
			owner = sh
		} else if owner != sh {
			sameOwner = false
		}
	}
	resp := api.ObserveResponse{
		Version:    api.Version,
		Accepted:   len(req.Observations),
		Generation: s.router.MaxGeneration(),
	}
	if s.router.Sharded() && sameOwner {
		resp.Shard = strconv.Itoa(owner)
		resp.WindowSize = s.router.Shard(owner).WindowSize()
	} else {
		resp.WindowSize = s.router.TotalWindow()
	}
	writeJSON(w, http.StatusAccepted, resp)
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, api.CodeMethod, "use GET")
		return
	}
	info := s.modelInfo()
	if info == nil {
		writeError(w, api.CodeNotTrained, "no model trained yet")
		return
	}
	// Recovery status rides only on GET /v1/model (not on every predict
	// response), and only when the daemon runs with durable state.
	info.Recovery = s.recoveryInfo()
	writeJSON(w, http.StatusOK, struct {
		Version string         `json:"version"`
		Model   *api.ModelInfo `json:"model"`
	}{api.Version, info})
}

// modelInfo snapshots the served model's metadata, or nil while every
// shard is cold. It aggregates across shards: Generation is the highest
// per-shard generation, TrainedOn/Swaps/WindowSize are totals, and the
// Shards and Partitioner fields appear only when more than one shard runs.
func (s *Server) modelInfo() *api.ModelInfo {
	var info *api.ModelInfo
	trained := 0
	var swaps, maxGen int64
	kind, mixed := "", false
	for i := 0; i < s.router.NumShards(); i++ {
		m := s.router.Shard(i).Model()
		if m == nil {
			continue
		}
		if info == nil {
			info = &api.ModelInfo{}
		}
		switch k := m.Model.Kind(); {
		case kind == "":
			kind = k
		case kind != k:
			mixed = true
		}
		// KCCA-specific introspection (feature space, neighbor index)
		// reports only the shards serving that kind; other kinds have no
		// neighbor index. Index shape aggregates across shards.
		if pred := m.Pred(); pred != nil {
			if info.Features == "" {
				opt := pred.Options()
				info.Features = opt.Features.String()
				info.TwoStep = opt.TwoStep
			}
			if ii := indexInfo(pred); info.Index == nil {
				info.Index = ii
			} else {
				info.Index.Points += ii.Points
				info.Index.Nodes += ii.Nodes
				info.Index.Stragglers += ii.Stragglers
				if ii.Kind == "kdtree" {
					info.Index.Kind = "kdtree"
				}
			}
		}
		trained += m.Model.N()
		swaps += m.Gen - 1
		if m.Gen > maxGen {
			maxGen = m.Gen
		}
	}
	if info == nil {
		return nil
	}
	info.ModelKind = kind
	if mixed {
		info.ModelKind = "mixed"
	}
	info.Generation = maxGen
	info.TrainedOn = trained
	info.Swaps = swaps
	info.WindowSize = s.router.TotalWindow()
	if s.router.Sharded() {
		info.Shards = s.router.NumShards()
		info.Partitioner = s.router.Partitioner().Name()
	}
	info.Champion, info.Challengers = s.zooInfo()
	return info
}

// zooInfo aggregates champion/challenger state across the router's shards
// into wire form, or (nil, nil) when no shard runs a zoo. Promotions sum
// across shards; a disagreeing champion reports "mixed"; per-kind shadow
// scores come from the first zoo shard (per-shard detail is on /v1/shards).
func (s *Server) zooInfo() (*api.ChampionInfo, []api.ChallengerInfo) {
	var champ *api.ChampionInfo
	var chals []api.ChallengerInfo
	for i := 0; i < s.router.NumShards(); i++ {
		zs := s.router.Shard(i).Zoo()
		if zs == nil {
			continue
		}
		c, cs := zooStatusInfo(zs)
		if champ == nil {
			champ, chals = c, cs
			continue
		}
		champ.Promotions += zs.Promotions
		if zs.Champion != champ.Kind {
			champ.Kind = "mixed"
			champ.SinceGeneration = 0
		}
	}
	return champ, chals
}

// zooStatusInfo converts one shard's champion/challenger snapshot to wire
// form.
func zooStatusInfo(zs *shard.ZooStatus) (*api.ChampionInfo, []api.ChallengerInfo) {
	if zs == nil {
		return nil, nil
	}
	champ := &api.ChampionInfo{
		Kind:            zs.Champion,
		Promotions:      zs.Promotions,
		SinceGeneration: zs.SinceGeneration,
	}
	chals := make([]api.ChallengerInfo, 0, len(zs.Scores))
	for _, ks := range zs.Scores {
		ci := api.ChallengerInfo{Kind: ks.Kind, Champion: ks.Kind == zs.Champion, Streak: ks.Streak}
		for _, cs := range ks.Categories {
			ci.Categories = append(ci.Categories, api.CategoryScore{
				Category:   cs.Category.String(),
				Samples:    cs.Samples,
				MeanRelErr: cs.MeanRelErr,
				Within20:   cs.Within20,
			})
		}
		chals = append(chals, ci)
	}
	return champ, chals
}

// apiRecovery converts a store's recovery record to its wire form.
func apiRecovery(info wal.RecoveryInfo) *api.RecoveryInfo {
	return &api.RecoveryInfo{
		Recovered:      info.Recovered,
		SnapshotSeq:    info.SnapshotSeq,
		Replayed:       info.Replayed,
		TornTail:       info.TornTail,
		TruncatedBytes: info.TruncatedBytes,
		ReplaySeconds:  info.ReplaySeconds,
	}
}

// recoveryInfo reports what boot-time recovery did, or nil when the daemon
// runs without durable state. It aggregates across shards: Recovered and
// TornTail are ORs, Replayed and TruncatedBytes are totals, SnapshotSeq
// and ReplaySeconds are maxima (per-shard detail is on GET /v1/shards).
func (s *Server) recoveryInfo() *api.RecoveryInfo {
	var agg *api.RecoveryInfo
	for i := 0; i < s.router.NumShards(); i++ {
		ri := s.router.Shard(i).Recovery()
		if ri == nil {
			continue
		}
		if agg == nil {
			agg = &api.RecoveryInfo{}
		}
		agg.Recovered = agg.Recovered || ri.Recovered
		agg.TornTail = agg.TornTail || ri.TornTail
		agg.Replayed += ri.Replayed
		agg.TruncatedBytes += ri.TruncatedBytes
		if ri.SnapshotSeq > agg.SnapshotSeq {
			agg.SnapshotSeq = ri.SnapshotSeq
		}
		if ri.ReplaySeconds > agg.ReplaySeconds {
			agg.ReplaySeconds = ri.ReplaySeconds
		}
	}
	return agg
}

// indexInfo reports the static per-generation shape of a predictor's
// neighbor index, deterministic for a given training window.
func indexInfo(p *core.Predictor) *api.IndexInfo {
	st := p.Index().Stats()
	kind := "kdtree"
	if st.Flat {
		kind = "flat"
	}
	return &api.IndexInfo{
		Kind:       kind,
		Metric:     p.Index().Metric().String(),
		Points:     st.Points,
		Nodes:      st.Nodes,
		Stragglers: st.Stragglers,
		MinPoints:  st.MinPoints,
	}
}

// handleShards serves GET /v1/shards: the routing policy and per-shard
// model state.
func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, api.CodeMethod, "use GET")
		return
	}
	resp := api.ShardsResponse{Version: api.Version, Partitioner: s.router.Partitioner().Name()}
	for i := 0; i < s.router.NumShards(); i++ {
		sh := s.router.Shard(i)
		si := api.ShardInfo{
			ID:           sh.ID,
			WindowSize:   sh.WindowSize(),
			Predictions:  sh.Predictions(),
			Observations: sh.Observed(),
		}
		if m := sh.Model(); m != nil {
			si.Ready = true
			si.Generation = m.Gen
			si.Swaps = m.Gen - 1
			si.TrainedOn = m.Model.N()
			si.ModelKind = m.Model.Kind()
		}
		si.Champion, si.Challengers = zooStatusInfo(sh.Zoo())
		if ri := sh.Recovery(); ri != nil {
			si.Recovery = apiRecovery(*ri)
		}
		resp.Shards = append(resp.Shards, si)
	}
	writeJSON(w, http.StatusOK, resp)
}
