package obs_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestHandlerEndpoints(t *testing.T) {
	obs.Reset()
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)

	// Exercise each instrument kind: a gauge (queue depth), a histogram
	// (predict latency), a counter (simulator) and a stage.
	obs.GetGauge("serve.queue.depth").Set(4)
	obs.GetHistogram("core.predict.seconds").Observe(0.002)
	obs.GetCounter("exec.simulate.queries").Add(100)
	obs.Span("kcca.train.eigen")()

	srv := httptest.NewServer(obs.Handler())
	defer srv.Close()

	code, body := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics is not valid JSON: %v", err)
	}
	if snap.Gauges["serve.queue.depth"] != 4 {
		t.Errorf("queue-depth gauge missing from snapshot: %v", snap.Gauges)
	}
	if snap.Histograms["core.predict.seconds"].Count != 1 {
		t.Error("predict latency histogram missing from snapshot")
	}
	if snap.Counters["exec.simulate.queries"] != 100 {
		t.Error("simulator counter missing from snapshot")
	}

	code, body = get(t, srv, "/timings")
	if code != http.StatusOK || !strings.Contains(body, "kcca.train.eigen") {
		t.Errorf("/timings status %d body %q", code, body)
	}

	code, body = get(t, srv, "/debug/vars")
	if code != http.StatusOK || !strings.Contains(body, `"obs"`) {
		t.Errorf("/debug/vars status %d missing published obs var", code)
	}

	code, _ = get(t, srv, "/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status %d", code)
	}
}

func TestServeMetrics(t *testing.T) {
	obs.Reset()
	addr, err := obs.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if !obs.Enabled() {
		t.Error("ServeMetrics should enable instrumentation")
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("snapshot decode: %v", err)
	}
	if !snap.Enabled {
		t.Error("served snapshot reports disabled")
	}
}
