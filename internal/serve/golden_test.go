package serve

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/shard"
	"repro/internal/wal"
)

var updateGolden = flag.Bool("update", false, "rewrite internal/serve/testdata/golden from the running code")

// Run-to-run masks. Only fields whose value legitimately differs between
// two runs of the same binary are masked:
//
//   - replay_seconds: wall-clock time of boot recovery;
//   - window_size and generation on a 202 observe response: both read the
//     asynchronously updated window mirror and model slot, which race the
//     background observe loop (the settled values are recorded through
//     GET /v1/model instead).
var (
	maskReplaySeconds = regexp.MustCompile(`"replay_seconds":[^,}]*`)
	maskObserveWindow = regexp.MustCompile(`"window_size":[0-9]+`)
	maskObserveGen    = regexp.MustCompile(`"generation":[0-9]+`)
)

// exchange is one recorded HTTP response: what a client can branch on.
type exchange struct {
	status     int
	retryAfter string
	body       []byte
}

func (e exchange) render() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "status: %d\nretry-after: %s\n", e.status, e.retryAfter)
	b.Write(e.body)
	return b.Bytes()
}

func record(t testing.TB, resp *http.Response, body []byte) exchange {
	t.Helper()
	return exchange{status: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After"), body: body}
}

func getExchange(t testing.TB, url string) exchange {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return record(t, resp, readAll(t, resp))
}

func postExchange(t testing.TB, url string, body any) exchange {
	t.Helper()
	resp, raw := postJSON(t, url, body)
	return record(t, resp, raw)
}

// checkGolden compares one exchange, after masking, with
// testdata/golden/<name>.txt (rewriting the file under -update).
func checkGolden(t *testing.T, name string, ex exchange, masks ...*regexp.Regexp) {
	t.Helper()
	for _, m := range masks {
		ex.body = m.ReplaceAllFunc(ex.body, func(b []byte) []byte {
			key := b[:bytes.IndexByte(b, ':')]
			return append(append([]byte{}, key...), []byte(`:"<masked>"`)...)
		})
	}
	got := ex.render()
	path := filepath.Join("testdata", "golden", name+".txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v (record with go test ./internal/serve/ -run TestGoldenWire -update)", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: wire response changed\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// blockingModel is a model.Model whose Predict blocks until release is
// closed: it pins a shard's coalescer mid-batch so queue overflow and the
// request deadline can be driven deterministically.
type blockingModel struct {
	// entered receives once per Predict call; its buffer covers every
	// call a test makes, so a signal nobody reads never blocks Predict.
	entered chan struct{}
	release chan struct{}
}

func newBlockingModel() *blockingModel {
	return &blockingModel{entered: make(chan struct{}, 16), release: make(chan struct{})}
}

func (m *blockingModel) Kind() string           { return "blocking" }
func (m *blockingModel) N() int                 { return 0 }
func (m *blockingModel) Save(_ io.Writer) error { return nil }
func (m *blockingModel) Fingerprint() uint64    { return 0 }
func (m *blockingModel) Predict(reqs ...core.Request) []core.Result {
	m.entered <- struct{}{}
	<-m.release
	out := make([]core.Result, len(reqs))
	for i := range out {
		out[i].Err = core.ErrNotTrained
	}
	return out
}

// newRouterServer serves the given shards behind a Server configured like
// baseConfig, with the cold-start fallback on as in qpredictd.
func newRouterServer(t testing.TB, cfgs []shard.ShardConfig, part shard.Partitioner, sc shard.Config) *Server {
	t.Helper()
	router, err := shard.NewRouter(cfgs, part, sc, true)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(t)
	cfg.Predictor = nil
	cfg.Router = router
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// newSlidingServer builds a one-shard daemon serving boot (nil boots cold)
// with a sliding window taking feedback.
func newSlidingServer(t testing.TB, boot *core.Predictor, capacity, every int, sc shard.Config) *Server {
	t.Helper()
	sliding, err := core.NewSliding(capacity, every, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return newRouterServer(t, []shard.ShardConfig{{Boot: boot, Sliding: sliding}}, shard.Passthrough{}, sc)
}

// newBlockedServer builds a one-shard server whose model is a
// blockingModel. Release the model before closing the server.
func newBlockedServer(t testing.TB, queueCap, maxBatch int, timeout time.Duration) (*Server, *blockingModel) {
	t.Helper()
	m := newBlockingModel()
	router, err := shard.NewRouter([]shard.ShardConfig{{BootModel: m}}, shard.Passthrough{},
		shard.Config{QueueCap: queueCap, MaxBatch: maxBatch}, true)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(t)
	cfg.Predictor = nil
	cfg.Router = router
	cfg.Timeout = timeout
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, m
}

// newDurableServer boots a cold sliding daemon (capacity 40, retrain every
// 10) on the state in dir, recovering whatever an earlier life left there.
func newDurableServer(t testing.TB, dir string) *Server {
	t.Helper()
	st, err := wal.OpenStore(wal.StoreOptions{
		Dir: dir, Policy: wal.SyncNone, SnapshotEvery: 100,
		Plan: PlannerFunc(catalog.TPCDS(1), fixDataSeed, exec.Research4()),
	})
	if err != nil {
		t.Fatal(err)
	}
	sliding, gen, err := st.Recover(40, 10, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return newRouterServer(t, []shard.ShardConfig{{Sliding: sliding, Store: st, BootGen: gen}}, shard.Passthrough{}, shard.Config{})
}

// observeRequest wraps executed queries as a /v1/observe body.
func observeRequest(qs ...*dataset.Query) api.ObserveRequest {
	var req api.ObserveRequest
	for _, q := range qs {
		req.Observations = append(req.Observations, api.Observation{SQL: q.SQL, Metrics: api.MetricsFrom(q.Metrics)})
	}
	return req
}

// TestGoldenWire pins the daemon's wire format: status, body and
// Retry-After of every response class a client can see, compared byte for
// byte with the fixtures under testdata/golden. Rewrite them with
// go test ./internal/serve/ -run TestGoldenWire -update only for an
// intended wire change.
func TestGoldenWire(t *testing.T) {
	pool, pred := fixture(t)
	const capacity, every = 30, 10

	// The daemon qpredictd runs by default: the boot model serving, with a
	// sliding window taking feedback.
	t.Run("stock", func(t *testing.T) {
		s := newSlidingServer(t, pred, capacity, every, shard.Config{})
		defer s.Close()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()

		checkGolden(t, "readyz", getExchange(t, ts.URL+"/readyz"))
		checkGolden(t, "model_boot", getExchange(t, ts.URL+"/v1/model"))
		checkGolden(t, "shards", getExchange(t, ts.URL+"/v1/shards"))
		checkGolden(t, "predict_single", postExchange(t, ts.URL+"/v1/predict", api.PredictRequest{SQL: pool.Queries[130].SQL}))
		checkGolden(t, "predict_batch_mixed", postExchange(t, ts.URL+"/v1/predict", api.PredictRequest{Queries: []api.QueryInput{
			{SQL: pool.Queries[121].SQL},
			{SQL: "SELEC nonsense FROM ("},
			{SQL: "SELECT COUNT(*) FROM no_such_table"},
			{SQL: pool.Queries[122].SQL},
		}}))
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "predict_empty_body", record(t, resp, readAll(t, resp)))
		checkGolden(t, "predict_no_queries", postExchange(t, ts.URL+"/v1/predict", api.PredictRequest{}))
		checkGolden(t, "predict_wrong_method", getExchange(t, ts.URL+"/v1/predict"))
		checkGolden(t, "observe_empty", postExchange(t, ts.URL+"/v1/observe", api.ObserveRequest{}))

		// Enough feedback for one retrain: generation 2 replaces the boot
		// model once the background loop has applied it.
		checkGolden(t, "observe_accepted",
			postExchange(t, ts.URL+"/v1/observe", observeRequest(pool.Queries[:every]...)),
			maskObserveWindow, maskObserveGen)
		settleModel(t, ts.URL, every, 2)
		checkGolden(t, "predict_gen2", postExchange(t, ts.URL+"/v1/predict", api.PredictRequest{Queries: []api.QueryInput{
			{SQL: pool.Queries[140].SQL}, {SQL: pool.Queries[141].SQL},
		}}))
		checkGolden(t, "model_gen2", getExchange(t, ts.URL+"/v1/model"))

		s.Close()
		checkGolden(t, "drain_predict", postExchange(t, ts.URL+"/v1/predict", api.PredictRequest{SQL: pool.Queries[130].SQL}))
		checkGolden(t, "drain_observe", postExchange(t, ts.URL+"/v1/observe", observeRequest(pool.Queries[0])))
		checkGolden(t, "drain_readyz", getExchange(t, ts.URL+"/readyz"))
	})

	t.Run("static", func(t *testing.T) {
		s, err := New(baseConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		checkGolden(t, "observe_static", postExchange(t, ts.URL+"/v1/observe", observeRequest(pool.Queries[0])))
	})

	t.Run("overload", func(t *testing.T) {
		s, m := newBlockedServer(t, 1, 1, 10*time.Second)
		defer s.Close()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		defer close(m.release)
		// The first request pins the coalescer inside Predict; the second
		// request's first query takes the one queue slot and its second
		// query overflows it.
		go http.Post(ts.URL+"/v1/predict", "application/json",
			strings.NewReader(`{"sql":"`+pool.Queries[121].SQL+`"}`))
		<-m.entered
		checkGolden(t, "predict_overloaded", postExchange(t, ts.URL+"/v1/predict", api.PredictRequest{Queries: []api.QueryInput{
			{SQL: pool.Queries[122].SQL}, {SQL: pool.Queries[123].SQL},
		}}))
	})

	t.Run("timeout", func(t *testing.T) {
		s, m := newBlockedServer(t, 16, 8, 50*time.Millisecond)
		defer s.Close()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		defer close(m.release)
		checkGolden(t, "predict_timeout", postExchange(t, ts.URL+"/v1/predict", api.PredictRequest{SQL: pool.Queries[121].SQL}))
	})

	t.Run("warm_restart", func(t *testing.T) {
		dir := t.TempDir()
		s1 := newDurableServer(t, dir)
		ts1 := httptest.NewServer(s1.Handler())
		if ex := postExchange(t, ts1.URL+"/v1/observe", observeRequest(pool.Queries[:25]...)); ex.status != http.StatusAccepted {
			t.Fatalf("observe: %d %s", ex.status, ex.body)
		}
		ts1.Close()
		s1.Close() // drains the observe queue and writes the final snapshot

		s2 := newDurableServer(t, dir)
		defer s2.Close()
		ts2 := httptest.NewServer(s2.Handler())
		defer ts2.Close()
		checkGolden(t, "model_recovered", getExchange(t, ts2.URL+"/v1/model"), maskReplaySeconds)
	})
}
