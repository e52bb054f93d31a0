package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/shard"
	"repro/internal/workload"
)

// TestCoalescedEquivalence is the acceptance test for the micro-batching
// coalescer: responses served through coalesced micro-batches must be
// bit-identical — metrics, category, confidence — to a direct serial
// PredictBatch on the same queries. The coalescing window is wide enough
// that concurrent arrivals really do share micro-batches (asserted via the
// batch-size histogram's observations), so the equality is exercised on
// genuinely coalesced work, not on 24 batches of one.
func TestCoalescedEquivalence(t *testing.T) {
	pool, pred := fixture(t)
	cfg := baseConfig(t)
	cfg.Window = 5 * time.Millisecond
	cfg.MaxBatch = 16
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	queries := pool.Queries[120:144]
	planned := make([]*dataset.Query, len(queries))
	for i, q := range queries {
		planned[i] = planLocal(t, q.SQL)
	}
	want, err := pred.PredictBatch(planned)
	if err != nil {
		t.Fatal(err)
	}

	// Fire all queries concurrently as single-query requests, so the only
	// way they share a Predict call is through the coalescer.
	got := make([]api.QueryResult, len(queries))
	var wg sync.WaitGroup
	for i := range queries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, raw := postJSON(t, ts.URL+"/v1/predict", api.PredictRequest{SQL: queries[i].SQL})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("query %d: status %d: %s", i, resp.StatusCode, raw)
				return
			}
			got[i] = decodePredict(t, raw).Results[0]
		}(i)
	}
	wg.Wait()

	for i := range queries {
		r := got[i]
		if r.Error != nil || r.Metrics == nil {
			t.Fatalf("query %d failed: %+v", i, r)
		}
		if r.Metrics.Exec() != want[i].Metrics {
			t.Errorf("query %d: served metrics %+v != direct %+v", i, r.Metrics.Exec(), want[i].Metrics)
		}
		if r.Confidence != want[i].Confidence {
			t.Errorf("query %d: served confidence %v != direct %v", i, r.Confidence, want[i].Confidence)
		}
		if r.Category != want[i].Category.String() {
			t.Errorf("query %d: served category %q != direct %q", i, r.Category, want[i].Category)
		}
		if r.Generation != 1 {
			t.Errorf("query %d: generation %d, want 1", i, r.Generation)
		}
	}
}

// TestHotSwapEquivalence is the stronger acceptance test: coalesced
// responses must stay bit-identical to direct prediction even while
// background retrains hot-swap the model mid-traffic. A local mirror
// SlidingPredictor is fed the exact observation sequence the server
// receives; training is deterministic, so the mirror reconstructs every
// generation's model, and each response — tagged with the generation that
// produced it — must match that generation's direct PredictQuery exactly.
// Run under -race in CI.
func TestHotSwapEquivalence(t *testing.T) {
	pool, pred := fixture(t)
	const capacity, retrainEvery = 40, 10
	s := newSlidingServer(t, pred, capacity, retrainEvery, shard.Config{Window: 2 * time.Millisecond, MaxBatch: 8})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The mirror: same window geometry, same options, fed the same
	// observations in the same order. Generation g on the server is the
	// boot model (g=1) or the mirror's (g-1)-th retrain.
	mirror, err := core.NewSliding(capacity, retrainEvery, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	genModels := map[int64]*core.Predictor{1: pred}

	// Concurrent predict traffic over a fixed query set while observations
	// stream. Collect (query index, generation, wire result) triples.
	type obsResult struct {
		qi  int
		gen int64
		res api.QueryResult
	}
	testQueries := pool.Queries[120:132]
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var seen []obsResult
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				qi := (g*5 + i) % len(testQueries)
				resp, raw := postJSON(t, ts.URL+"/v1/predict", api.PredictRequest{SQL: testQueries[qi].SQL})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status %d: %s", resp.StatusCode, raw)
					return
				}
				r := decodePredict(t, raw).Results[0]
				if r.Error != nil {
					t.Errorf("predict failed: %+v", r.Error)
					return
				}
				mu.Lock()
				seen = append(seen, obsResult{qi, r.Generation, r})
				mu.Unlock()
			}
		}(g)
	}

	// Stream 30 observations one request at a time (a single sequential
	// client, so the server's observe channel sees them in this exact
	// order), mirroring each into the local sliding window.
	for _, q := range pool.Queries[:30] {
		wire := api.MetricsFrom(q.Metrics)
		resp, raw := postJSON(t, ts.URL+"/v1/observe", api.ObserveRequest{Observations: []api.Observation{
			{SQL: q.SQL, Metrics: wire},
		}})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("observe %d: %s", resp.StatusCode, raw)
		}
		mq := planLocal(t, q.SQL)
		mq.Metrics = wire.Exec()
		mq.Category = workload.Categorize(mq.Metrics.ElapsedSec)
		before := mirror.Retrains()
		if err := mirror.Observe(mq); err != nil {
			t.Fatalf("mirror observe: %v", err)
		}
		if mirror.Retrains() != before {
			genModels[int64(mirror.Retrains())+1] = mirror.Current()
		}
	}

	// Let traffic overlap the last swap, then stop and drain.
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/model")
		if err != nil {
			t.Fatal(err)
		}
		raw := readAll(t, resp)
		var body struct {
			Model *api.ModelInfo `json:"model"`
		}
		if err := json.Unmarshal(raw, &body); err != nil {
			t.Fatal(err)
		}
		if body.Model != nil && body.Model.Swaps >= int64(mirror.Retrains()) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server swaps trail mirror retrains (%d)", mirror.Retrains())
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if mirror.Retrains() < 3 {
		t.Fatalf("mirror retrained %d times, want >= 3", mirror.Retrains())
	}
	gens := map[int64]int{}
	for _, o := range seen {
		model, ok := genModels[o.gen]
		if !ok {
			t.Fatalf("response carries unknown generation %d", o.gen)
		}
		gens[o.gen]++
		want, err := model.PredictQuery(planLocal(t, testQueries[o.qi].SQL))
		if err != nil {
			t.Fatal(err)
		}
		if o.res.Metrics.Exec() != want.Metrics ||
			o.res.Confidence != want.Confidence ||
			o.res.Category != want.Category.String() {
			t.Fatalf("generation %d response diverges from its model's direct prediction:\nserved %+v conf %v cat %q\ndirect %+v conf %v cat %q",
				o.gen, o.res.Metrics.Exec(), o.res.Confidence, o.res.Category,
				want.Metrics, want.Confidence, want.Category)
		}
	}
	if len(seen) == 0 {
		t.Fatal("no predictions overlapped the retraining")
	}
	t.Logf("verified %d responses across generations %v", len(seen), gens)
}
