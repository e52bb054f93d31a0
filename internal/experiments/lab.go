// Package experiments reproduces every table and figure of the paper's
// evaluation (Secs. V-VII): the regression baselines of Figs. 3-4, the
// SQL-text feature study of Fig. 8, the design-decision Tables I-III, the
// four prediction experiments of Figs. 10-15, the 32-node configuration
// sweep of Fig. 16, and the optimizer-cost baseline of Fig. 17. Each
// experiment is a method on a Lab, which generates and caches the query
// pools; the cmd/experiments binary and the repository's benchmarks both
// drive these methods.
package experiments

import (
	"fmt"
	"sync"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/statutil"
	"repro/internal/workload"
)

// Paper-matching workload sizes.
const (
	// Exp 1 training mix: 767 feathers, 230 golf balls, 30 bowling balls
	// (Sec. VII-A.1).
	Exp1TrainFeathers = 767
	Exp1TrainGolf     = 230
	Exp1TrainBowling  = 30
	// Test mix: 45 feathers, 7 golf balls, 9 bowling balls.
	TestFeathers = 45
	TestGolf     = 7
	TestBowling  = 9
	// Exp 2 balanced training mix (Sec. VII-A.2).
	Exp2PerType = 30
	// 32-node system splits (Sec. VII-B).
	ProdTrain = 917
	ProdTest  = 183
	// Customer-database test size (Sec. VII-A.4).
	CustomerTestSize = 45

	// researchPoolSize is how many TPC-DS queries are generated and run on
	// the research system to fill the category pools.
	researchPoolSize = 3200
)

// Lab generates, executes, and caches the query pools shared by the
// experiments. Everything is derived deterministically from Seed.
//
// The size fields default to the paper's workload sizes; tests and quick
// ablations may shrink them before the first experiment runs.
type Lab struct {
	Seed int64
	// PoolSize overrides the research pool size (0 = paper default).
	PoolSize int
	// TrainMix and TestMix override the Experiment 1 feather/golf/bowling
	// counts (zero values = paper defaults).
	TrainMix, TestMix [3]int
	// ProdSize overrides the production train+test pool size.
	ProdSize [2]int // {train, test}; zeros = paper defaults

	mu       sync.Mutex
	schema   *catalog.Schema
	custom   *catalog.Schema
	research *dataset.Dataset
	prod     map[int]*dataset.Dataset
	customer *dataset.Dataset
	baseProd *dataset.Dataset

	exp1Train []*dataset.Query
	exp1Test  []*dataset.Query
	exp1Model *core.Predictor
}

// NewLab returns a lab seeded for reproducible experiments.
func NewLab(seed int64) *Lab {
	return &Lab{Seed: seed, prod: map[int]*dataset.Dataset{}}
}

func (l *Lab) poolSize() int {
	if l.PoolSize > 0 {
		return l.PoolSize
	}
	return researchPoolSize
}

func (l *Lab) trainMix() [3]int {
	if l.TrainMix != [3]int{} {
		return l.TrainMix
	}
	return [3]int{Exp1TrainFeathers, Exp1TrainGolf, Exp1TrainBowling}
}

func (l *Lab) testMix() [3]int {
	if l.TestMix != [3]int{} {
		return l.TestMix
	}
	return [3]int{TestFeathers, TestGolf, TestBowling}
}

func (l *Lab) prodSizes() (int, int) {
	if l.ProdSize != [2]int{} {
		return l.ProdSize[0], l.ProdSize[1]
	}
	return ProdTrain, ProdTest
}

// Schema returns the TPC-DS schema used throughout.
func (l *Lab) Schema() *catalog.Schema {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.schema == nil {
		l.schema = catalog.TPCDS(1)
	}
	return l.schema
}

// CustomerDB returns the customer schema of Experiment 4.
func (l *Lab) CustomerDB() *catalog.Schema {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.custom == nil {
		l.custom = catalog.CustomerSchema()
	}
	return l.custom
}

// dataSeed is the data-realization seed for the TPC-DS database.
func (l *Lab) dataSeed() int64 { return l.Seed + 1000 }

// ResearchPool generates (once) the full TPC-DS query pool on the
// 4-processor research system: thousands of template instances sorted into
// feather / golf ball / bowling ball pools, as in Sec. IV-B.
func (l *Lab) ResearchPool() (*dataset.Dataset, error) {
	schema := l.Schema()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.research == nil {
		ds, err := dataset.Generate(dataset.GenConfig{
			Seed:      l.Seed,
			DataSeed:  l.dataSeed(),
			Machine:   exec.Research4(),
			Schema:    schema,
			Templates: workload.TPCDSTemplates(),
			Count:     l.poolSize(),
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: research pool: %w", err)
		}
		l.research = ds
	}
	return l.research, nil
}

// Exp1Split returns the paper's canonical training and test sets: 1027
// training queries (767/230/30) and 61 test queries (45/7/9), disjoint.
func (l *Lab) Exp1Split() (train, test []*dataset.Query, err error) {
	ds, err := l.ResearchPool()
	if err != nil {
		return nil, nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.exp1Train == nil {
		r := statutil.NewRNG(l.Seed, "exp1mix")
		tm := l.testMix()
		test, err := ds.SampleMix(r, tm[0], tm[1], tm[2])
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: test mix: %w", err)
		}
		remaining := ds.Subset(ds.Split(test))
		trm := l.trainMix()
		train, err := remaining.SampleMix(r, trm[0], trm[1], trm[2])
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: train mix: %w", err)
		}
		l.exp1Train, l.exp1Test = train, test
	}
	return l.exp1Train, l.exp1Test, nil
}

// Exp1Model trains (once) the paper's main one-model KCCA predictor on the
// Exp 1 training set.
func (l *Lab) Exp1Model() (*core.Predictor, []*dataset.Query, []*dataset.Query, error) {
	train, test, err := l.Exp1Split()
	if err != nil {
		return nil, nil, nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.exp1Model == nil {
		p, err := core.Train(train, core.DefaultOptions())
		if err != nil {
			return nil, nil, nil, fmt.Errorf("experiments: Exp1 training: %w", err)
		}
		l.exp1Model = p
	}
	return l.exp1Model, train, test, nil
}

// prodBasePool generates (once) the benchmark-template query set reused
// across the 32-node configurations. Only benchmark-class templates are
// used: the paper notes all queries ran quickly on the production system.
func (l *Lab) prodBasePool() (*dataset.Dataset, error) {
	schema := l.Schema()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.baseProd == nil {
		var tpls []workload.Template
		for _, t := range workload.TPCDSTemplates() {
			if t.Class == "tpcds" {
				tpls = append(tpls, t)
			}
		}
		ds, err := dataset.Generate(dataset.GenConfig{
			Seed:      l.Seed + 7,
			DataSeed:  l.dataSeed(),
			Machine:   exec.Production32(32),
			Schema:    schema,
			Templates: tpls,
			Count:     func() int { a, b := l.prodSizes(); return a + b }(),
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: production pool: %w", err)
		}
		l.baseProd = ds
	}
	return l.baseProd, nil
}

// ProdPool returns the production-system dataset re-planned and re-executed
// on the configuration using p of the 32 processors.
func (l *Lab) ProdPool(p int) (*dataset.Dataset, error) {
	base, err := l.prodBasePool()
	if err != nil {
		return nil, err
	}
	schema := l.Schema()
	l.mu.Lock()
	defer l.mu.Unlock()
	if ds, ok := l.prod[p]; ok {
		return ds, nil
	}
	ds, err := dataset.ReExecute(base, schema, l.dataSeed(), exec.Production32(p), l.Seed+int64(p))
	if err != nil {
		return nil, fmt.Errorf("experiments: production %d-cpu rerun: %w", p, err)
	}
	l.prod[p] = ds
	return ds, nil
}

// CustomerPool generates (once) the customer-database queries of
// Experiment 4: short-running queries against a schema the training set
// never saw.
func (l *Lab) CustomerPool() (*dataset.Dataset, error) {
	schema := l.CustomerDB()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.customer == nil {
		ds, err := dataset.Generate(dataset.GenConfig{
			Seed:      l.Seed + 13,
			DataSeed:  l.dataSeed() + 1, // a different database entirely
			Machine:   exec.Research4(),
			Schema:    schema,
			Templates: workload.CustomerTemplates(),
			Count:     CustomerTestSize,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: customer pool: %w", err)
		}
		l.customer = ds
	}
	return l.customer, nil
}

// splitProd splits a production dataset deterministically into
// ProdTrain/ProdTest.
func (l *Lab) splitProd(ds *dataset.Dataset) (train, test []*dataset.Query) {
	r := statutil.NewRNG(l.Seed, "prodsplit")
	_, nTest := l.prodSizes()
	idx := r.Perm(len(ds.Queries))
	for i, j := range idx {
		if i < nTest {
			test = append(test, ds.Queries[j])
		} else {
			train = append(train, ds.Queries[j])
		}
	}
	return train, test
}

// Evaluate runs the predictor over the test queries (batched through
// parallel.For) and returns per-metric prediction and actual series (indexed
// by exec metric constants).
func Evaluate(p *core.Predictor, test []*dataset.Query) (pred, act [exec.NumMetrics][]float64, err error) {
	prs, err := p.PredictBatch(test)
	if err != nil {
		return pred, act, err
	}
	for i, q := range test {
		pv := prs[i].Metrics.Vector()
		av := q.Metrics.Vector()
		for m := 0; m < exec.NumMetrics; m++ {
			pred[m] = append(pred[m], pv[m])
			act[m] = append(act[m], av[m])
		}
	}
	return pred, act, nil
}
