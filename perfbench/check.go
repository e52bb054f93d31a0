package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"

	"repro/internal/api"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/exec"
	"repro/internal/serve"
	"repro/internal/wal"
	"repro/internal/workload"
	"repro/pkg/qpredict"
)

// bootModel returns the predictor qpredictd trains as its boot model under
// stock settings, with its training queries. Training takes seconds, so the
// model is cached in dir under a key naming this executable: a rebuild
// from changed sources trains afresh.
func bootModel(dir string) (*core.Predictor, []*dataset.Query, error) {
	def := qpredict.Default()
	machine, err := exec.ParseMachine(def.Train.Machine)
	if err != nil {
		return nil, nil, err
	}
	ds, err := dataset.Generate(dataset.GenConfig{
		Seed:      def.Train.Seed,
		DataSeed:  def.Train.DataSeed,
		Machine:   machine,
		Schema:    catalog.TPCDS(1),
		Templates: workload.TPCDSTemplates(),
		Count:     def.Train.Count,
	})
	if err != nil {
		return nil, nil, err
	}
	key, err := selfHash()
	if err != nil {
		return nil, nil, err
	}
	path := filepath.Join(dir, "bootmodel-"+key+".bin")
	if f, err := os.Open(path); err == nil {
		p, err := core.Load(f)
		f.Close()
		if err == nil {
			return p, ds.Queries, nil
		}
	}
	p, err := core.Train(ds.Queries, core.DefaultOptions())
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		return nil, nil, err
	}
	if err := wal.WriteFileAtomic(path, buf.Bytes(), 0o644); err != nil {
		return nil, nil, err
	}
	return p, ds.Queries, nil
}

// selfHash names the running executable by a prefix of its SHA-256.
func selfHash() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// checker verifies every response of a run and accumulates the accuracy
// figure. A request whose response is missing, refused or wrong counts as
// failed once.
type checker struct {
	s *stream
	// oracle, when set, is the boot model: predict responses must match it
	// bit for bit after JSON decoding. On a workload whose queries are all
	// new, only requests with a stream index divisible by coldSample are
	// compared, which bounds the oracle's share of the run.
	oracle   *core.Predictor
	expected map[string]api.QueryResult

	attempted, failed int
	transport, status int // failures by kind, for the report
	wrong             int
	firstWrong        []string

	pred, act []float64 // predicted and simulated elapsed times
}

// coldSample is one over the share of predict-cold requests the oracle
// compares.
const coldSample = 4

func newChecker(s *stream, oracle *core.Predictor) *checker {
	return &checker{s: s, oracle: oracle}
}

// compared reports whether request k's answers are compared with the
// oracle.
func (c *checker) compared(k int) bool {
	return c.oracle != nil && (c.s.spec.Pool > 0 || k%coldSample == 0)
}

func (c *checker) fail(format string, args ...any) {
	c.wrong++
	if len(c.firstWrong) < 5 {
		c.firstWrong = append(c.firstWrong, fmt.Sprintf(format, args...))
	}
}

// expect computes the oracle's answers for every SQL text the phases
// predicted, planning each with the daemon's planner.
func (c *checker) expect(phases []*phase) error {
	if c.oracle == nil {
		return nil
	}
	c.expected = map[string]api.QueryResult{}
	var sqls []string
	for _, p := range phases {
		for _, sm := range p.Samples {
			if sm.Observe || !c.compared(sm.K) {
				continue
			}
			for _, j := range c.s.request(sm.K).Queries {
				sql := c.s.queries[j].SQL
				if _, ok := c.expected[sql]; !ok {
					c.expected[sql] = api.QueryResult{}
					sqls = append(sqls, sql)
				}
			}
		}
	}
	machine, err := exec.ParseMachine(machineName)
	if err != nil {
		return err
	}
	plan := serve.PlannerFunc(catalog.TPCDS(1), dataSeed, machine)
	reqs := make([]core.Request, len(sqls))
	costs := make([]float64, len(sqls))
	for i, sql := range sqls {
		q, err := plan(sql)
		if err != nil {
			return fmt.Errorf("oracle: planning %q: %w", sql, err)
		}
		reqs[i] = core.Request{Query: q}
		costs[i] = q.Plan.Cost
	}
	for i, r := range c.oracle.Predict(reqs...) {
		if r.Err != nil {
			return fmt.Errorf("oracle: predicting %q: %w", sqls[i], r.Err)
		}
		m := api.MetricsFrom(r.Prediction.Metrics)
		c.expected[sqls[i]] = api.QueryResult{
			SQL:           sqls[i],
			Metrics:       &m,
			Category:      r.Prediction.Category.String(),
			Confidence:    r.Prediction.Confidence,
			OptimizerCost: costs[i],
			Generation:    1,
			ModelKind:     "kcca",
		}
	}
	return nil
}

// check verifies one phase's responses.
func (c *checker) check(p *phase) {
	lastGen := map[int]int64{} // per sender: highest generation seen
	for _, sm := range p.Samples {
		c.attempted++
		before := c.wrong
		switch {
		case sm.Err != nil:
			c.transport++
			c.failed++
			continue
		case sm.Observe && sm.Status != http.StatusAccepted, !sm.Observe && sm.Status != http.StatusOK:
			c.status++
			c.failed++
			continue
		case sm.Observe:
			var resp api.ObserveResponse
			if err := json.Unmarshal(sm.Body, &resp); err != nil || resp.Accepted != 1 {
				c.fail("request %d: observe response %q", sm.K, sm.Body)
			}
		default:
			c.checkPredict(sm, lastGen)
		}
		if c.wrong > before {
			c.failed++
		}
	}
}

func (c *checker) checkPredict(sm sample, lastGen map[int]int64) {
	var resp api.PredictResponse
	if err := json.Unmarshal(sm.Body, &resp); err != nil {
		c.fail("request %d: decoding response: %v", sm.K, err)
		return
	}
	r := c.s.request(sm.K)
	if len(resp.Results) != len(r.Queries) {
		c.fail("request %d: %d results for %d queries", sm.K, len(resp.Results), len(r.Queries))
		return
	}
	minGen, maxGen := int64(math.MaxInt64), int64(0)
	for i, got := range resp.Results {
		q := c.s.queries[r.Queries[i]]
		if got.Error != nil || got.Metrics == nil || got.SQL != q.SQL {
			c.fail("request %d result %d: error %v, metrics %v, sql match %v", sm.K, i, got.Error, got.Metrics, got.SQL == q.SQL)
			return
		}
		switch {
		case c.compared(sm.K):
			if want := c.expected[q.SQL]; !sameResult(got, want) {
				c.fail("request %d result %d: got %+v %+v, want %+v %+v", sm.K, i, got, *got.Metrics, want, *want.Metrics)
				return
			}
		case !validMetrics(*got.Metrics):
			c.fail("request %d result %d: metrics %+v not finite and non-negative", sm.K, i, *got.Metrics)
			return
		case c.oracle != nil && (got.Generation != 1 || got.ModelKind != "kcca"):
			c.fail("request %d result %d: generation %d, model %q on a predict-only workload", sm.K, i, got.Generation, got.ModelKind)
			return
		}
		if got.Generation < minGen {
			minGen = got.Generation
		}
		if got.Generation < maxGen {
			c.fail("request %d: generation falls within the batch", sm.K)
			return
		}
		maxGen = got.Generation
		c.pred = append(c.pred, got.Metrics.ElapsedSec)
		c.act = append(c.act, q.Actual.ElapsedSec)
	}
	// A sender's next request is sent after its previous reply, and the
	// served generation only moves forward.
	if minGen < lastGen[sm.Sender] || minGen < 1 {
		c.fail("request %d: generation %d after %d", sm.K, minGen, lastGen[sm.Sender])
	}
	lastGen[sm.Sender] = maxGen
}

// sameResult compares a decoded response with the oracle's answer.
func sameResult(got, want api.QueryResult) bool {
	return got.SQL == want.SQL && *got.Metrics == *want.Metrics && got.Category == want.Category &&
		got.Confidence == want.Confidence && got.OptimizerCost == want.OptimizerCost &&
		got.Generation == want.Generation && got.ModelKind == want.ModelKind &&
		got.Shard == "" && got.FallbackShard == ""
}

func validMetrics(m api.Metrics) bool {
	for _, v := range []float64{m.ElapsedSec, m.RecordsAccessed, m.RecordsUsed, m.DiskIOs, m.MessageCount, m.MessageBytes} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return false
		}
	}
	return true
}

// within20 is the share of predicted elapsed times within 20% of the
// simulated actual: the paper's accuracy headline.
func (c *checker) within20() float64 {
	if len(c.pred) == 0 {
		return 0
	}
	return eval.WithinFactor(c.pred, c.act, 0.2)
}

// maxIndex is one past the highest query index any phase sent.
func maxIndex(s *stream, phases []*phase) int {
	n := 0
	for _, p := range phases {
		for _, sm := range p.Samples {
			for _, j := range s.request(sm.K).Queries {
				n = max(n, j+1)
			}
		}
	}
	return n
}

func (c *checker) String() string {
	return fmt.Sprintf("attempted %d, failed %d (transport %d, status %d, wrong %d) %v",
		c.attempted, c.failed, c.transport, c.status, c.wrong, c.firstWrong)
}
