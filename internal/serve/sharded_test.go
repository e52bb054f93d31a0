package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/shard"
)

// newShardedServer builds a Server backed by n shards, each booted from
// the fixture model with its own sliding window.
func newShardedServer(t testing.TB, n int, part shard.Partitioner, capacity, every int) *Server {
	t.Helper()
	_, pred := fixture(t)
	cfgs := make([]shard.ShardConfig, n)
	for i := range cfgs {
		sl, err := core.NewSliding(capacity, every, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		cfgs[i] = shard.ShardConfig{Boot: pred, Sliding: sl}
	}
	return newRouterServer(t, cfgs, part, shard.Config{})
}

// getBody fetches a URL and returns status + body.
func getBody(t testing.TB, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, readAll(t, resp)
}

// settleModel polls /v1/model until the reported window size and generation
// reach want, returning the settled body.
func settleModel(t testing.TB, url string, window int, gen int64) []byte {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, raw := getBody(t, url+"/v1/model")
		var body struct {
			Model *api.ModelInfo `json:"model"`
		}
		if json.Unmarshal(raw, &body) == nil && body.Model != nil &&
			body.Model.WindowSize == window && body.Model.Generation == gen {
			return raw
		}
		if time.Now().After(deadline) {
			t.Fatalf("model never settled to window %d generation %d: %s", window, gen, raw)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestShardedServeHTTP exercises the multi-shard daemon over HTTP: shard
// fields appear on results, the aggregate model view reports the tier, and
// /v1/shards breaks it down per shard.
func TestShardedServeHTTP(t *testing.T) {
	pool, pred := fixture(t)
	part := shard.NewHashPartitioner(4, core.DefaultOptions().Features)
	s := newShardedServer(t, 4, part, 20, 5)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var inputs []api.QueryInput
	for _, q := range pool.Queries[120:150] {
		inputs = append(inputs, api.QueryInput{SQL: q.SQL})
	}
	resp, raw := postJSON(t, ts.URL+"/v1/predict", api.PredictRequest{Queries: inputs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict %d: %s", resp.StatusCode, raw)
	}
	pr := decodePredict(t, raw)
	if pr.Model == nil || pr.Model.Shards != 4 || pr.Model.Partitioner != "hash" {
		t.Fatalf("model info %+v, want 4 shards via hash", pr.Model)
	}
	if pr.Model.TrainedOn != 4*pred.N() {
		t.Errorf("trained_on %d, want %d (sum across shards)", pr.Model.TrainedOn, 4*pred.N())
	}
	seen := map[string]bool{}
	for i, r := range pr.Results {
		if r.Error != nil {
			t.Fatalf("result %d: %+v", i, r.Error)
		}
		if r.Shard == "" {
			t.Fatalf("result %d missing shard field: %+v", i, r)
		}
		if r.FallbackShard != "" {
			t.Fatalf("result %d reports a fallback on a fully warm tier: %+v", i, r)
		}
		seen[r.Shard] = true
		// Routing matches the partitioner run locally on the same plan.
		want, err := part.RoutePredict(planLocal(t, r.SQL))
		if err != nil {
			t.Fatal(err)
		}
		if r.Shard != fmt.Sprint(want) {
			t.Errorf("result %d routed to shard %s, partitioner says %d", i, r.Shard, want)
		}
	}
	if len(seen) < 2 {
		t.Errorf("30 queries all hashed to one shard: %v", seen)
	}

	// Observations land on their owning shards and /v1/shards reports them.
	var obs []api.Observation
	for _, q := range pool.Queries[:8] {
		obs = append(obs, api.Observation{SQL: q.SQL, Metrics: api.MetricsFrom(q.Metrics)})
	}
	oresp, oraw := postJSON(t, ts.URL+"/v1/observe", api.ObserveRequest{Observations: obs})
	if oresp.StatusCode != http.StatusAccepted {
		t.Fatalf("observe %d: %s", oresp.StatusCode, oraw)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, body := getBody(t, ts.URL+"/v1/shards")
		if st != http.StatusOK {
			t.Fatalf("shards %d: %s", st, body)
		}
		var sh api.ShardsResponse
		if err := json.Unmarshal(body, &sh); err != nil {
			t.Fatal(err)
		}
		if len(sh.Shards) != 4 || sh.Partitioner != "hash" {
			t.Fatalf("shards body %s", body)
		}
		total, totalPred := 0, int64(0)
		for _, si := range sh.Shards {
			total += si.WindowSize
			totalPred += si.Predictions
		}
		if total == len(obs) {
			if totalPred < int64(len(inputs)) {
				t.Fatalf("predictions across shards %d, want at least %d", totalPred, len(inputs))
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("windows never absorbed %d observations: %s", len(obs), body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
