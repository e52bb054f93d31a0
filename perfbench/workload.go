package main

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/api"
	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/sqlgen"
	"repro/internal/statutil"
	"repro/internal/workload"
)

// The daemon's stock boot configuration (qpredict.Default): the benchmark
// generates its pools against the same schema, data realization and
// machine, so the daemon plans the benchmark's SQL exactly as the pool's
// simulated actuals were planned.
const (
	dataSeed    = 1000
	machineName = "research4"
)

// poolSeed generates the query pools of the repeating workloads. A pool is
// fixed like the workload's batch size and mix, so runs with different
// seeds differ in the request stream they draw from it, not in how costly
// the pool's queries are.
const poolSeed = 1

// workloadSpec is one traffic mix. A request is either a predict of Batch
// queries or an observe of one executed query with its simulated metrics.
// A workload that observes runs its daemons with durable state.
type workloadSpec struct {
	Name string
	// Batch is the number of queries per predict request.
	Batch int
	// Pool is the number of distinct queries the stream draws from; 0 means
	// every query of the run is a new SQL text.
	Pool int
	// ObserveFrac is the share of requests that are observes.
	ObserveFrac float64
	// OpenRate is the open-loop arrival rate in requests per second, set
	// below the workload's closed-loop throughput on a 2-CPU host.
	OpenRate float64
}

var workloads = map[string]workloadSpec{
	"predict-hot":   {Name: "predict-hot", Batch: 16, Pool: 200, OpenRate: 200},
	"predict-cold":  {Name: "predict-cold", Batch: 16, OpenRate: 120},
	"observe-churn": {Name: "observe-churn", Batch: 16, Pool: 2000, ObserveFrac: 0.5, OpenRate: 140},
}

// poolQuery is one generated query: the SQL the daemon receives and the
// metrics the simulator reports for executing it.
type poolQuery struct {
	SQL    string
	Actual exec.Metrics
}

// request is one element of the stream: indexes into stream.queries.
type request struct {
	Observe bool
	Queries []int
}

// stream is a workload's deterministic request sequence for one seed.
// Request k depends only on (workload, seed, k), so concurrent senders
// claiming indexes in any order still send the same requests.
type stream struct {
	spec workloadSpec
	seed int64
	// querySeed drives query generation: the run's seed for a Pool 0
	// workload, poolSeed for a pool workload, whose pool is part of its
	// definition while the seed draws the request stream from it.
	querySeed int64
	// queries is the repeating pool, or for a Pool 0 workload the sequence
	// of distinct queries that requests consume Batch at a time.
	queries []poolQuery
	// actuals counts the leading queries whose Actual is filled in.
	actuals int
}

// newStream generates the workload's queries. For a Pool 0 workload,
// maxRequests bounds the stream length; only SQL is generated up front and
// fillActuals simulates the prefix a run actually sent.
func newStream(spec workloadSpec, seed int64, maxRequests int) (*stream, error) {
	s := &stream{spec: spec, seed: seed, querySeed: poolSeed}
	n := spec.Pool
	if n == 0 {
		s.querySeed = seed
		n = maxRequests * spec.Batch
	}
	g := newGenerator(s.querySeed, spec.Name)
	s.queries = make([]poolQuery, n)
	for i := range s.queries {
		s.queries[i].SQL, _ = g.next()
	}
	if spec.Pool > 0 {
		if err := s.fillActuals(n); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// limit is the number of requests the stream can supply.
func (s *stream) limit() int {
	if s.spec.Pool > 0 {
		return math.MaxInt
	}
	return len(s.queries) / s.spec.Batch
}

// request returns request k of the stream.
func (s *stream) request(k int) request {
	b := s.spec.Batch
	if s.spec.Pool == 0 {
		idx := make([]int, b)
		for i := range idx {
			idx[i] = k*b + i
		}
		return request{Queries: idx}
	}
	pool := uint64(s.spec.Pool)
	if s.spec.ObserveFrac > 0 && unit(draw(s.seed, k, 255)) < s.spec.ObserveFrac {
		return request{Observe: true, Queries: []int{int(draw(s.seed, k, 0) % pool)}}
	}
	idx := make([]int, b)
	for i := range idx {
		idx[i] = int(draw(s.seed, k, i) % pool)
	}
	return request{Queries: idx}
}

// path is the endpoint a request is sent to.
func (r request) path() string {
	if r.Observe {
		return "/v1/observe"
	}
	return "/v1/predict"
}

// body is the JSON the daemon receives for r.
func (s *stream) body(r request) []byte {
	var v any
	if r.Observe {
		obs := make([]api.Observation, len(r.Queries))
		for i, j := range r.Queries {
			obs[i] = api.Observation{SQL: s.queries[j].SQL, Metrics: api.MetricsFrom(s.queries[j].Actual)}
		}
		v = api.ObserveRequest{Observations: obs}
	} else {
		in := make([]api.QueryInput, len(r.Queries))
		for i, j := range r.Queries {
			in[i] = api.QueryInput{SQL: s.queries[j].SQL}
		}
		v = api.PredictRequest{Queries: in}
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain strings and finite floats always encode
	}
	return b
}

// repeatShare is the workload's defining property over requests [0, n):
// the share of predicted SQL texts that an earlier query of the run (in
// the same or an earlier request, predicted or observed) already carried.
func (s *stream) repeatShare(n int) float64 {
	seen := map[int]bool{}
	predicted, repeats := 0, 0
	for k := 0; k < n; k++ {
		r := s.request(k)
		for _, j := range r.Queries {
			if !r.Observe {
				predicted++
				if seen[j] {
					repeats++
				}
			}
			seen[j] = true
		}
	}
	return ratio(float64(repeats), float64(predicted))
}

// fillActuals simulates the first n queries of the stream, so their Actual
// metrics are available. Queries are re-generated rather than kept, which
// keeps a long distinct stream to its SQL text until the end of a run.
func (s *stream) fillActuals(n int) error {
	if n <= s.actuals {
		return nil
	}
	machine, err := exec.ParseMachine(machineName)
	if err != nil {
		return err
	}
	schema := catalog.TPCDS(1)
	cfg := optimizer.DefaultConfig(machine.Processors)
	noise := statutil.NewRNG(s.querySeed, "perfbench:execnoise:"+s.spec.Name)
	g := newGenerator(s.querySeed, s.spec.Name)
	for i := 0; i < n; i++ {
		sql, ast := g.next()
		if sql != s.queries[i].SQL {
			return fmt.Errorf("stream %s: query %d regenerated differently", s.spec.Name, i)
		}
		plan, err := optimizer.BuildPlan(ast, schema, dataSeed, cfg)
		if err != nil {
			return fmt.Errorf("stream %s: planning query %d: %w", s.spec.Name, i, err)
		}
		s.queries[i].Actual = exec.Execute(plan, machine, noise)
	}
	s.actuals = n
	return nil
}

// generator yields distinct query instances round-robin over the TPC-DS
// templates, on random streams of the benchmark's own (the daemon's boot
// training uses different ones, so no seed reproduces its training set).
type generator struct {
	tpls []workload.Template
	rngs []*statutil.RNG
	i    int
	seen map[string]bool
}

func newGenerator(seed int64, name string) *generator {
	g := &generator{tpls: workload.TPCDSTemplates(), seen: map[string]bool{}}
	g.rngs = make([]*statutil.RNG, len(g.tpls))
	for i, t := range g.tpls {
		g.rngs[i] = statutil.NewRNG(seed, "perfbench:"+name+":"+t.Name)
	}
	return g
}

// next returns the next instance whose SQL text has not appeared before.
func (g *generator) next() (string, *sqlgen.Query) {
	for {
		t := g.i % len(g.tpls)
		g.i++
		ast := g.tpls[t].Gen(g.rngs[t])
		sql := ast.Render()
		if !g.seen[sql] {
			g.seen[sql] = true
			return sql, ast
		}
	}
}

// draw is a counter-based random number for slot of request k: the same
// (seed, k, slot) always gives the same value, with no shared state.
func draw(seed int64, k, slot int) uint64 {
	return splitmix64(splitmix64(uint64(seed)) ^ uint64(k)<<8 ^ uint64(slot))
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// unit maps a random word to [0, 1).
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }
