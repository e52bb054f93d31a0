package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/shard"
)

// TestHotSwapUnderLoad predicts continuously from several goroutines while
// observation feedback retrains and swaps the model underneath them. Run
// under -race in CI, it is the proof that the atomic model slot lets
// retraining happen without blocking (or corrupting) a single read. Every
// response must be a complete 200 prediction, and the generations seen
// must only ever move forward per client.
func TestHotSwapUnderLoad(t *testing.T) {
	pool, pred := fixture(t)
	s := newSlidingServer(t, pred, 60, 20, shard.Config{Window: 500 * time.Microsecond, MaxBatch: 8})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sqls := []string{pool.Queries[121].SQL, pool.Queries[125].SQL, pool.Queries[133].SQL}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lastGen := int64(0)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, raw := postJSON(t, ts.URL+"/v1/predict", api.PredictRequest{SQL: sqls[(g+i)%len(sqls)]})
				if resp.StatusCode != http.StatusOK {
					errs <- string(raw)
					return
				}
				pr := decodePredict(t, raw)
				r := pr.Results[0]
				if r.Error != nil || r.Metrics == nil || r.Generation < 1 {
					errs <- "incomplete result under swap: " + string(raw)
					return
				}
				if r.Generation < lastGen {
					// One client's generations may only move forward: the
					// slot swap is atomic and never rolls back.
					errs <- "generation went backwards"
					return
				}
				lastGen = r.Generation
			}
		}(g)
	}

	// Stream 60 executed queries in; at retrainEvery=20 that is three
	// background retrains hot-swapped mid-traffic.
	for lo := 0; lo < 60; lo += 10 {
		var obs []api.Observation
		for _, q := range pool.Queries[lo : lo+10] {
			obs = append(obs, api.Observation{SQL: q.SQL, Metrics: api.MetricsFrom(q.Metrics)})
		}
		resp, raw := postJSON(t, ts.URL+"/v1/observe", api.ObserveRequest{Observations: obs})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("observe %d: %s", resp.StatusCode, raw)
		}
	}

	// Wait until all three swaps landed, with traffic still flowing.
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
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(raw, &body); err != nil {
				t.Fatal(err)
			}
			if body.Model.Swaps >= 3 {
				if body.Model.Generation != body.Model.Swaps+1 {
					t.Errorf("generation %d with %d swaps", body.Model.Generation, body.Model.Swaps)
				}
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("swaps never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
